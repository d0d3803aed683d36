// Autotuner axis (BENCH_9): what the cost-model-pruned beam search finds and
// what the pruning costs, across the workload suite and a fuzz corpus.
//
// Three sections, each doubling as an oracle run (a violation aborts the
// bench, so the artifact certifies its own claims):
//
//   suite   one search per suite workload at the service-default budget.
//           Checked: the search succeeds and best_cycles <= lev4_cycles on
//           every workload (the Lev4 seed is always simulated, so a miss
//           means the search lost a result).
//   audit   the fixed sub-grid pruning audit per workload (every level x
//           unroll {1,2,4,8,16}, 25 configs).  The exhaustive pass measures
//           the pruned-away set too, so the report is exact: equal-best must
//           hold on every workload and the suite-aggregate pruned fraction
//           must be >= 30% -- the issue's accountability contract for the
//           cost model.
//   fuzz    one small-budget search per random fuzz program.  Checked: the
//           Lev4 floor, plus the compile-determinism oracle -- the winning
//           config recompiled twice produces identical interpreter digests.
//
// Every simulation inside the tuner runs profiled with exact slot
// conservation enforced (sum over causes == width * cycles), so every cycle
// count in the artifact has already passed that check.
//
//   bench_autotune [--out PATH]   write the JSON artifact (default BENCH_9.json)
//   bench_autotune --no-json      table only
//   bench_autotune --jobs N       evaluator pool size (default: hardware)
//   bench_autotune --fuzz N       fuzz corpus size (default 12, ILP_FUZZ_SEEDS-scaled)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "tune/tune.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace ilp;

struct SuiteRow {
  std::string workload;
  tune::TuneResult result;
};

struct AuditRow {
  std::string workload;
  tune::PruningAudit audit;
};

struct FuzzSummary {
  int count = 0;
  std::uint64_t simulated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t improved = 0;  // searches that beat the Lev4 seed
  double speedup_sum = 0.0;
};

// A pure counter of the global registry (0 before its first bump).
std::uint64_t registry_count(std::string_view name) {
  for (const auto& [n, stat] : engine::MetricsRegistry::global().snapshot())
    if (n == name) return stat.count;
  return 0;
}

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "bench_autotune: %s\n", what.c_str());
  std::exit(1);
}

void write_json(const std::vector<SuiteRow>& suite,
                const std::vector<AuditRow>& audits, const FuzzSummary& fuzz,
                double aggregate_pruned_fraction, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"ilp92-autotune-v1\",\n  \"issue\": 8,\n"
      << "  \"suite\": [";
  bool first = true;
  for (const SuiteRow& row : suite) {
    const tune::TuneResult& r = row.result;
    out << (first ? "" : ",") << "\n    {\"workload\": \"" << row.workload
        << "\", \"best\": \"" << r.best.name()
        << "\", \"best_cycles\": " << r.best_cycles
        << ", \"lev4_cycles\": " << r.lev4_cycles;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ", \"speedup_vs_lev4\": %.4f, \"rounds\": %d, "
                  "\"considered\": %llu, \"simulated\": %llu, "
                  "\"pruned\": %llu, \"cache_hits\": %llu, "
                  "\"model_mape\": %.4f}",
                  r.speedup_vs_lev4(), r.rounds,
                  static_cast<unsigned long long>(r.considered),
                  static_cast<unsigned long long>(r.simulated),
                  static_cast<unsigned long long>(r.pruned),
                  static_cast<unsigned long long>(r.cache_hits), r.model_mape);
    out << buf;
    first = false;
  }
  out << "\n  ],\n  \"audit\": [";
  first = true;
  for (const AuditRow& row : audits) {
    const tune::PruningAudit& a = row.audit;
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "\n    {\"workload\": \"%s\", \"grid_size\": %llu, "
                  "\"simulated\": %llu, \"pruned\": %llu, "
                  "\"pruned_fraction\": %.4f, \"equal_best\": %s, "
                  "\"exhaustive_best\": %llu, \"pruned_best\": %llu, "
                  "\"precision\": %.4f, \"model_mape\": %.4f}",
                  row.workload.c_str(),
                  static_cast<unsigned long long>(a.grid_size),
                  static_cast<unsigned long long>(a.simulated),
                  static_cast<unsigned long long>(a.pruned),
                  a.pruned_fraction(), a.equal_best() ? "true" : "false",
                  static_cast<unsigned long long>(a.exhaustive_best),
                  static_cast<unsigned long long>(a.pruned_best), a.precision(),
                  a.model_mape);
    out << (first ? "" : ",") << buf;
    first = false;
  }
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "\n  ],\n  \"aggregate_pruned_fraction\": %.4f,\n"
                "  \"fuzz\": {\"count\": %d, \"simulated\": %llu, "
                "\"pruned\": %llu, \"improved\": %llu, "
                "\"mean_speedup_vs_lev4\": %.4f, \"digest_oracle\": \"pass\", "
                "\"floor_oracle\": \"pass\"}\n}\n",
                aggregate_pruned_fraction, fuzz.count,
                static_cast<unsigned long long>(fuzz.simulated),
                static_cast<unsigned long long>(fuzz.pruned),
                static_cast<unsigned long long>(fuzz.improved),
                fuzz.count > 0 ? fuzz.speedup_sum / fuzz.count : 0.0);
  out << buf;
  std::fprintf(stderr, "[bench] autotune results -> %s\n", path.c_str());
}

// The compile-determinism oracle for one tuned fuzz program: the winner,
// recompiled twice, must produce identical interpreter digests.
void check_digest_oracle(int seed, const std::string& src,
                         const tune::TuneResult& r) {
  Workload w;
  w.name = "tuned-fuzz";
  w.source = src;
  const MachineModel m = MachineModel::issue(8);
  const auto compile_winner = [&] {
    return try_compile_workload(w, r.best.level, m,
                                tune::to_compile_options(r.best));
  };
  auto a = compile_winner();
  if (!a) fail(strformat("fuzz seed %d: winner failed to compile", seed));
  bool ok = false;
  std::string err;
  const std::uint64_t digest = testing::run_digest(a->fn, &ok, &err);
  if (!ok)
    fail(strformat("fuzz seed %d: winner %s failed under the interpreter: %s",
                   seed, r.best.name().c_str(), err.c_str()));
  auto b = compile_winner();
  if (!b || testing::run_digest(b->fn) != digest)
    fail(strformat("fuzz seed %d: winner %s is not compile-deterministic",
                   seed, r.best.name().c_str()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_9.json";
  int jobs = 0;
  int fuzz_base = 12;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--no-json"))
      out_path.clear();
    else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
      jobs = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--fuzz") && i + 1 < argc)
      fuzz_base = std::atoi(argv[++i]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--out PATH | --no-json] [--jobs N] [--fuzz N]\n",
                   argv[0]);
      return 1;
    }
  }

  bench::print_header(
      "Autotuning: cost-model-pruned beam search over the transformation space");

  engine::ThreadPool pool(jobs > 0 ? static_cast<unsigned>(jobs)
                                   : std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  tune::LocalEvaluator eval(&pool, &cache);

  // --- Suite: one search per workload at the service-default budget --------
  std::vector<SuiteRow> suite;
  const std::uint64_t compiles_before = registry_count("tune.compiles");
  const std::uint64_t reused_before = registry_count("tune.reused");
  std::printf("%-8s %8s %8s %8s  %-28s %5s %6s %6s\n", "workload", "lev4",
              "best", "speedup", "best config", "simd", "pruned", "mape%");
  for (const Workload& w : workload_suite()) {
    const tune::TuneResult r = tune::autotune(w.source, tune::TuneOptions{}, eval);
    if (!r.ok) fail(w.name + ": " + r.error);
    if (r.lev4_cycles == 0 || r.best_cycles > r.lev4_cycles)
      fail(strformat("%s: best %llu worse than Lev4 %llu", w.name.c_str(),
                     static_cast<unsigned long long>(r.best_cycles),
                     static_cast<unsigned long long>(r.lev4_cycles)));
    std::printf("%-8s %8llu %8llu %7.3fx  %-28s %5llu %6llu %5.1f%%\n",
                w.name.c_str(), static_cast<unsigned long long>(r.lev4_cycles),
                static_cast<unsigned long long>(r.best_cycles),
                r.speedup_vs_lev4(), r.best.name().c_str(),
                static_cast<unsigned long long>(r.simulated),
                static_cast<unsigned long long>(r.pruned),
                100.0 * r.model_mape);
    suite.push_back(SuiteRow{w.name, r});
  }
  std::uint64_t suite_simulated = 0;
  for (const SuiteRow& row : suite) suite_simulated += row.result.simulated;
  std::printf("suite: %llu candidate compiles; %llu of %llu measurements reused "
              "an identical program's simulation\n",
              static_cast<unsigned long long>(registry_count("tune.compiles") -
                                              compiles_before),
              static_cast<unsigned long long>(registry_count("tune.reused") -
                                              reused_before),
              static_cast<unsigned long long>(suite_simulated));

  // --- Pruning audit: pruned vs. exhaustive on the fixed sub-grid ----------
  std::vector<AuditRow> audits;
  std::uint64_t grid_total = 0, pruned_total = 0;
  const std::vector<tune::TuneConfig> grid = tune::default_audit_grid();
  std::printf("\n%-8s %5s %5s %7s  %-10s %10s %6s\n", "workload", "grid",
              "simd", "pruned", "equal_best", "precision", "mape%");
  for (const Workload& w : workload_suite()) {
    const tune::PruningAudit a =
        tune::audit_pruning(w.source, tune::TuneOptions{}, grid, eval);
    if (!a.ok) fail(w.name + " audit: " + a.error);
    if (!a.equal_best())
      fail(strformat("%s: pruned pass missed the true best (%llu vs %llu)",
                     w.name.c_str(),
                     static_cast<unsigned long long>(a.pruned_best),
                     static_cast<unsigned long long>(a.exhaustive_best)));
    grid_total += a.grid_size;
    pruned_total += a.pruned;
    std::printf("%-8s %5llu %5llu %6.1f%%  %-10s %9.1f%% %5.1f%%\n",
                w.name.c_str(), static_cast<unsigned long long>(a.grid_size),
                static_cast<unsigned long long>(a.simulated),
                100.0 * a.pruned_fraction(), "yes", 100.0 * a.precision(),
                100.0 * a.model_mape);
    audits.push_back(AuditRow{w.name, a});
  }
  const double aggregate_pruned =
      grid_total == 0 ? 0.0
                      : static_cast<double>(pruned_total) /
                            static_cast<double>(grid_total);
  if (aggregate_pruned < 0.30)
    fail(strformat("aggregate pruned fraction %.3f below the 0.30 contract",
                   aggregate_pruned));
  std::printf("aggregate: %.1f%% of the grid pruned at equal best on every "
              "workload\n", 100.0 * aggregate_pruned);

  // --- Fuzz corpus: Lev4 floor + compile-determinism digest oracle ---------
  FuzzSummary fuzz;
  fuzz.count = testing::fuzz_seed_count(fuzz_base);
  tune::TuneOptions fuzz_opts;
  fuzz_opts.beam_width = 2;
  fuzz_opts.max_rounds = 1;
  fuzz_opts.max_sims = 16;
  for (int seed = 1; seed <= fuzz.count; ++seed) {
    const std::string src =
        testing::random_program(static_cast<std::uint64_t>(seed));
    const tune::TuneResult r = tune::autotune(src, fuzz_opts, eval);
    if (!r.ok) fail(strformat("fuzz seed %d: %s", seed, r.error.c_str()));
    if (r.lev4_cycles == 0 || r.best_cycles > r.lev4_cycles)
      fail(strformat("fuzz seed %d: best worse than Lev4", seed));
    fuzz.simulated += r.simulated;
    fuzz.pruned += r.pruned;
    if (r.best_cycles < r.lev4_cycles) ++fuzz.improved;
    fuzz.speedup_sum += r.speedup_vs_lev4();
    check_digest_oracle(seed, src, r);
  }
  std::printf("\nfuzz: %d programs tuned, %llu simulated / %llu pruned, "
              "%llu improved on Lev4 (mean speedup %.3fx); digest oracle "
              "passed on every winner\n",
              fuzz.count, static_cast<unsigned long long>(fuzz.simulated),
              static_cast<unsigned long long>(fuzz.pruned),
              static_cast<unsigned long long>(fuzz.improved),
              fuzz.count > 0 ? fuzz.speedup_sum / fuzz.count : 0.0);

  bench::paper_note(
      "Reading: the paper fixes one transformation recipe (Lev4) for every "
      "loop; the tuner treats that recipe as a seed and searches the "
      "surrounding space per program.  Where Lev4 already saturates the "
      "recurrence bound the search confirms it (speedup 1.0x, the paper's "
      "claim that its levels capture the available ILP), and where the "
      "space has headroom -- a different unroll factor, a nest pass, the "
      "modulo backend -- the tuner finds it without ever simulating most "
      "of the grid: the audit section shows the analytic-then-calibrated "
      "cost model pruning the majority of candidates while still landing "
      "on the exhaustive-search best on every suite workload.");

  if (!out_path.empty())
    write_json(suite, audits, fuzz, aggregate_pruned, out_path);
  return 0;
}
