// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --ilpd PATH [--trace-dir DIR] [--record FILE]
//                    [--commit ID]
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  --record appends the same result together with its run
// context (machine, build, seed, phases, failures) as one JSON line.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/log.hpp"
#include "support/strings.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload tune_suite|serve_warm\n"
               "         --seed N --seconds S --trace 0|1 --ilpd PATH\n"
               "         [--trace-dir DIR] [--record FILE] [--commit ID]\n");
  return 2;
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += ilp::strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                          ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string record, commit = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--ilpd") opt.ilpd = v;
    else if (a == "--trace-dir") opt.trace_dir = v;
    else if (a == "--record") record = v;
    else if (a == "--commit") commit = v;
    else return usage();
  }
  if ((trace != 0 && trace != 1) || opt.seconds <= 0) return usage();
  opt.trace = trace == 1;
  ilp::obs::Logger::global().set_level(ilp::obs::LogLevel::Off);

  const double steal0 = perfbench::steal_s();
  const std::uint64_t t0 = perfbench::now_ns();
  perfbench::RunResult r;
  if (opt.workload == "tune_suite") r = perfbench::run_tune_suite(opt);
  else if (opt.workload == "serve_warm") {
    if (opt.ilpd.empty() || access(opt.ilpd.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "perfbench_driver: --ilpd must name the ilpd binary\n");
      return 2;
    }
    r = perfbench::run_serve_warm(opt);
  } else {
    return usage();
  }

  // Steal time marks runs a busy host slowed down; it is context, not a metric.
  const double run_s = static_cast<double>(perfbench::now_ns() - t0) / 1e9;
  r.ctx("run_wall_s", run_s);
  r.ctx("steal_share", (perfbench::steal_s() - steal0) /
                           (run_s * std::max(1u, std::thread::hardware_concurrency())));
  perfbench::finish_layers(r);
  for (const std::string& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  const std::string metrics = metrics_json(opt.trace ? r.layer : r.e2e);
  const std::string result = ilp::strformat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());

  if (!record.empty()) {
    std::string ctx = ilp::strformat(
        "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
        "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds, trace,
        std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        ilp::json_escape(commit).c_str());
    for (const auto& [k, v] : r.context) ctx += ", \"" + k + "\": " + v;
    std::string errs;
    for (const std::string& e : r.errors)
      errs += (errs.empty() ? "\"" : ", \"") + ilp::json_escape(e) + "\"";
    // Both metric sets go to the record: a traced run's untraced phase gives
    // the end-to-end numbers the tracing overhead is measured against.
    const std::string line = ilp::strformat(
        "{\"result\": %s, \"end_to_end\": %s, \"per_layer\": %s, \"context\": {%s}, "
        "\"errors\": [%s]}\n",
        result.c_str(), metrics_json(r.e2e).c_str(), metrics_json(r.layer).c_str(),
        ctx.c_str(), errs.c_str());
    if (std::FILE* f = std::fopen(record.c_str(), "a")) {
      std::fputs(line.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench_driver: cannot append to %s\n", record.c_str());
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
