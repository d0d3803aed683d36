// ilp_loadgen — closed-loop load generator for ilpd.
//
//   ilp_loadgen [--host H] --port P [--connections N[,N...]] [--duration-s S]
//               [--corpus N] [--seed-base N] [--issue W] [--out FILE]
//               [--scheduler list|modulo|both] [--no-warmup] [--autotune]
//
// --autotune switches the corpus from compile requests to autotune requests
// (one bounded search per fuzz program: beam 2, one mutation round).  The
// warm-up pass runs every search once, so the timed phase measures the
// daemon's whole-result replay path plus whatever coalesces mid-flight; the
// report then adds the server's own per-stage tuning percentiles (search =
// analyze+rank wall, simulate = measurement batches) from the stats verb's
// tune section, which is where the search-vs-simulate split actually lives —
// client latency can't see it.
//
// Builds a corpus of randomized fuzz-generator programs (the same
// distribution the differential tests replay), pre-serializes one compile
// request per program per selected scheduling backend, optionally runs a
// warm-up pass so the daemon's result cache is hot, then hammers the server
// from N connections for S seconds.  Reports throughput and
// p50/p90/p99/p999/max latency — overall AND per backend, since modulo
// compiles are strictly more work than list compiles and mixing their
// percentiles would hide both distributions.  Samples go through
// obs::Histogram (the daemon's own log-bucketed histogram, ~3% bucket
// resolution), so the record path is three relaxed atomic adds and the
// percentile math is shared with the server instead of re-derived from an
// ad-hoc sort.
//
// --connections takes a comma-separated sweep (e.g. 8,16,64,128); each point
// runs the full timed phase and emits one JSON record per line, both to
// stdout and to --out (BENCH_6.json in CI is the single-point 64-connection
// run).
//
// After each timed phase the daemon's own `stats` verb is queried and its
// request-latency histogram percentiles are reported next to the
// client-side numbers: client-side includes the network round trip,
// server-side is request-handling wall time, so the gap is the transport tax
// and the two should otherwise agree within histogram resolution.
//
// Exit status is nonzero on any protocol failure — a dropped connection, an
// unparseable response, or an `ok:false` reply — so CI catches crashes and
// protocol bugs without being sensitive to machine speed.
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fixtures.hpp"
#include "obs/histogram.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "support/strings.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// A corpus entry: the pre-serialized request line, tagged with the backend
// it targets so latency samples never mix across schedulers.
struct CorpusRequest {
  std::string line;
  int sched = 0;  // index into kSchedulerNames
};

constexpr const char* kSchedulerNames[] = {"list", "modulo"};

// Latency sinks for one sweep point: overall plus one histogram per backend.
// obs::Histogram is internally sharded, so every worker records straight
// into these with no client-side aggregation step.
struct LatencySinks {
  ilp::obs::Histogram overall;
  ilp::obs::Histogram by_sched[2];
  void reset() {
    overall.reset();
    by_sched[0].reset();
    by_sched[1].reset();
  }
};

struct WorkerResult {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::string first_error;
};

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<int> connections = {8};  // --connections 8 or a sweep 8,16,64
  int duration_s = 10;
  int corpus = 32;
  std::uint64_t seed_base = 7'000;
  int issue = 8;
  bool run_list = true;    // --scheduler list|modulo|both
  bool run_modulo = false;
  bool autotune = false;   // corpus of autotune searches instead of compiles
  std::string out;
  bool warmup = true;
};

// One closed-loop connection: send, wait for the reply, repeat.
// Connection w of n walks its own stride of the corpus (w, w+n, w+2n, ...),
// so one pass sends every request once: with --no-warmup and a corpus larger
// than the run, every request is a cache miss.
void run_worker(const Options& opt, const std::vector<CorpusRequest>& requests,
                Clock::time_point deadline, int worker_id, int connections,
                LatencySinks* lat, WorkerResult* out) {
  ilp::server::LineClient client;
  if (!client.connect(opt.host, opt.port)) {
    out->errors = 1;
    out->first_error = "connect failed";
    return;
  }
  std::size_t next = static_cast<std::size_t>(worker_id);
  while (Clock::now() < deadline) {
    const CorpusRequest& req = requests[next % requests.size()];
    next += static_cast<std::size_t>(connections);
    const auto t0 = Clock::now();
    if (!client.send_line(req.line)) {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = "send failed";
      return;
    }
    const auto reply = client.recv_line();
    const auto t1 = Clock::now();
    if (!reply) {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = "recv failed (timeout/EOF)";
      return;
    }
    ++out->requests;
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
    lat->overall.record(us);
    lat->by_sched[req.sched].record(us);
    std::string err;
    const auto parsed = ilp::server::JsonValue::parse(*reply, &err);
    const ilp::server::JsonValue* ok = parsed ? parsed->find("ok") : nullptr;
    if (!parsed || ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      ++out->errors;
      if (out->first_error.empty())
        out->first_error = "bad response: " + *reply;
    }
  }
}

// Percentile block shared by the overall and per-backend report sections.
std::string percentile_json(const ilp::obs::Histogram::Snapshot& snap) {
  return ilp::strformat(
      "\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"max\":%llu",
      snap.quantile(0.50), snap.quantile(0.90), snap.quantile(0.99),
      snap.quantile(0.999), static_cast<unsigned long long>(snap.max_value));
}

// The daemon's view of its own request latency, from the `stats` verb.
struct ServerLatency {
  bool ok = false;
  std::uint64_t count = 0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
};

ServerLatency fetch_server_latency(const Options& opt) {
  ServerLatency out;
  ilp::server::LineClient client;
  if (!client.connect(opt.host, opt.port)) return out;
  if (!client.send_line(R"({"id":"loadgen-stats","kind":"stats"})")) return out;
  const auto reply = client.recv_line(10'000);
  if (!reply) return out;
  std::string err;
  const auto parsed = ilp::server::JsonValue::parse(*reply, &err);
  if (!parsed) return out;
  const ilp::server::JsonValue* stats = parsed->find("stats");
  const ilp::server::JsonValue* lat =
      stats != nullptr ? stats->find("latency_us") : nullptr;
  if (lat == nullptr) return out;
  auto num = [&](const char* name) -> double {
    const ilp::server::JsonValue* v = lat->find(name);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  out.ok = true;
  out.count = static_cast<std::uint64_t>(num("count"));
  out.p50 = num("p50");
  out.p90 = num("p90");
  out.p99 = num("p99");
  out.p999 = num("p999");
  return out;
}

// The daemon's per-stage tuning split (stats verb, "tune" section): search =
// analyze+rank batches, simulate = measurement batches.
struct TunePhases {
  bool ok = false;
  ServerLatency search, simulate;
};

TunePhases fetch_tune_phases(const Options& opt) {
  TunePhases out;
  ilp::server::LineClient client;
  if (!client.connect(opt.host, opt.port)) return out;
  if (!client.send_line(R"({"id":"loadgen-tune","kind":"stats"})")) return out;
  const auto reply = client.recv_line(10'000);
  if (!reply) return out;
  std::string err;
  const auto parsed = ilp::server::JsonValue::parse(*reply, &err);
  if (!parsed) return out;
  const ilp::server::JsonValue* stats = parsed->find("stats");
  const ilp::server::JsonValue* tune =
      stats != nullptr ? stats->find("tune") : nullptr;
  if (tune == nullptr) return out;
  auto read = [&](const char* section, ServerLatency* dst) {
    const ilp::server::JsonValue* s = tune->find(section);
    if (s == nullptr) return;
    auto num = [&](const char* name) -> double {
      const ilp::server::JsonValue* v = s->find(name);
      return v != nullptr && v->is_number() ? v->as_double() : 0.0;
    };
    dst->ok = true;
    dst->count = static_cast<std::uint64_t>(num("count"));
    dst->p50 = num("p50");
    dst->p90 = num("p90");
    dst->p99 = num("p99");
    dst->p999 = num("p999");
  };
  read("search_us", &out.search);
  read("simulate_us", &out.simulate);
  out.ok = out.search.ok && out.simulate.ok;
  return out;
}

// Runs one sweep point (N connections for duration_s) and returns its JSON
// record.  Protocol errors accumulate into *errors / *first_error.
std::string run_point(const Options& opt,
                      const std::vector<CorpusRequest>& requests,
                      int connections, LatencySinks& lat,
                      std::uint64_t* errors, std::string* first_error) {
  lat.reset();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(opt.duration_s);
  std::vector<WorkerResult> results(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (int w = 0; w < connections; ++w)
    threads.emplace_back(run_worker, std::cref(opt), std::cref(requests),
                         deadline, w, connections, &lat,
                         &results[static_cast<std::size_t>(w)]);
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::uint64_t total = 0;
  for (const WorkerResult& r : results) {
    total += r.requests;
    *errors += r.errors;
    if (first_error->empty()) *first_error = r.first_error;
  }
  const auto all = lat.overall.snapshot();
  const double rps = elapsed_s > 0 ? static_cast<double>(total) / elapsed_s : 0.0;
  const ServerLatency server = fetch_server_latency(opt);

  std::string report = ilp::strformat(
      "{\"bench\":\"ilp_loadgen\",\"mode\":\"%s\",\"connections\":%d,"
      "\"duration_s\":%.3f,"
      "\"corpus\":%d,\"issue\":%d,\"warm_cache\":%s,\"requests\":%llu,"
      "\"errors\":%llu,\"throughput_rps\":%.1f,\"latency_us\":{%s}",
      opt.autotune ? "autotune" : "compile", connections, elapsed_s, opt.corpus,
      opt.issue, opt.warmup ? "true" : "false",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(*errors), rps,
      percentile_json(all).c_str());
  // Per-backend percentiles: present only for the backends that ran, so
  // downstream tooling never mistakes an empty bucket for a fast one.
  // (Autotune searches explore both backends internally, so the per-backend
  // split doesn't apply in that mode.)
  if (!opt.autotune) {
    std::string sect;
    for (int sched = 0; sched < 2; ++sched) {
      const auto snap = lat.by_sched[sched].snapshot();
      if (snap.count == 0) continue;
      sect += ilp::strformat(
          "%s\"%s\":{\"requests\":%llu,%s}", sect.empty() ? "" : ",",
          kSchedulerNames[sched], static_cast<unsigned long long>(snap.count),
          percentile_json(snap).c_str());
    }
    if (!sect.empty()) report += ",\"by_scheduler\":{" + sect + "}";
  }
  if (server.ok)
    report += ilp::strformat(
        ",\"server_latency_us\":{\"count\":%llu,\"p50\":%.1f,\"p90\":%.1f,"
        "\"p99\":%.1f,\"p999\":%.1f}",
        static_cast<unsigned long long>(server.count), server.p50, server.p90,
        server.p99, server.p999);
  if (opt.autotune) {
    const TunePhases phases = fetch_tune_phases(opt);
    if (phases.ok) {
      auto phase_json = [](const ServerLatency& p) {
        return ilp::strformat(
            "{\"count\":%llu,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f,"
            "\"p999\":%.1f}",
            static_cast<unsigned long long>(p.count), p.p50, p.p90, p.p99,
            p.p999);
      };
      report += ",\"server_tune_us\":{\"search\":" + phase_json(phases.search) +
                ",\"simulate\":" + phase_json(phases.simulate) + "}";
      std::fprintf(stderr,
                   "[%d conns] tune_us       search  |  simulate\n"
                   "  p50      %8.0f  | %8.0f\n"
                   "  p90      %8.0f  | %8.0f\n"
                   "  p99      %8.0f  | %8.0f\n"
                   "  p999     %8.0f  | %8.0f\n"
                   "(server-side per-stage wall: %llu search batches, "
                   "%llu measurement batches)\n",
                   connections, phases.search.p50, phases.simulate.p50,
                   phases.search.p90, phases.simulate.p90, phases.search.p99,
                   phases.simulate.p99, phases.search.p999,
                   phases.simulate.p999,
                   static_cast<unsigned long long>(phases.search.count),
                   static_cast<unsigned long long>(phases.simulate.count));
    } else {
      std::fprintf(stderr,
                   "[%d conns] server tune stats unavailable (old daemon?)\n",
                   connections);
    }
  }
  report += "}";

  if (server.ok) {
    std::fprintf(stderr,
                 "[%d conns] latency_us    client  |  server\n"
                 "  p50      %8.0f  | %8.0f\n"
                 "  p90      %8.0f  | %8.0f\n"
                 "  p99      %8.0f  | %8.0f\n"
                 "  p999     %8.0f  | %8.0f\n"
                 "(client includes the network round trip; server is "
                 "request-handling wall time over %llu requests)\n",
                 connections, all.quantile(0.50), server.p50,
                 all.quantile(0.90), server.p90, all.quantile(0.99), server.p99,
                 all.quantile(0.999), server.p999,
                 static_cast<unsigned long long>(server.count));
  }
  return report;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] --port P [--connections N[,N...]]\n"
               "          [--duration-s S] [--corpus N] [--seed-base N]\n"
               "          [--issue W] [--out FILE]\n"
               "          [--scheduler list|modulo|both] [--no-warmup]\n"
               "          [--autotune]\n",
               argv0);
  return 2;
}

bool parse_connections(const char* arg, std::vector<int>* out) {
  out->clear();
  std::string cur;
  for (const char* p = arg;; ++p) {
    if (*p != '\0' && *p != ',') {
      cur += *p;
      continue;
    }
    const int n = std::atoi(cur.c_str());
    if (n <= 0) return false;
    out->push_back(n);
    cur.clear();
    if (*p == '\0') break;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) opt.host = v;
    else if (arg == "--port" && (v = next())) opt.port = std::atoi(v);
    else if (arg == "--connections" && (v = next())) {
      if (!parse_connections(v, &opt.connections)) {
        std::fprintf(stderr, "bad --connections '%s'\n", v);
        return usage(argv[0]);
      }
    }
    else if (arg == "--duration-s" && (v = next())) opt.duration_s = std::atoi(v);
    else if (arg == "--corpus" && (v = next())) opt.corpus = std::atoi(v);
    else if (arg == "--seed-base" && (v = next()))
      opt.seed_base = static_cast<std::uint64_t>(std::atoll(v));
    else if (arg == "--issue" && (v = next())) opt.issue = std::atoi(v);
    else if (arg == "--scheduler" && (v = next())) {
      const std::string k = v;
      opt.run_list = k == "list" || k == "both";
      opt.run_modulo = k == "modulo" || k == "both";
      if (!opt.run_list && !opt.run_modulo) {
        std::fprintf(stderr, "bad --scheduler '%s'\n", v);
        return usage(argv[0]);
      }
    }
    else if (arg == "--out" && (v = next())) opt.out = v;
    else if (arg == "--no-warmup") opt.warmup = false;
    else if (arg == "--autotune") opt.autotune = true;
    else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opt.port <= 0 || opt.duration_s <= 0 || opt.corpus <= 0)
    return usage(argv[0]);

  // Pre-serialize one compile request per (corpus program, backend);
  // id = corpus index.  Interleaving backends per program keeps each worker's
  // closed-loop walk mixed, while the per-request `sched` tag keeps the
  // latency accounting separate.
  std::vector<CorpusRequest> requests;
  requests.reserve(static_cast<std::size_t>(opt.corpus) * 2);
  for (int c = 0; c < opt.corpus; ++c) {
    const std::string src = ilp::testing::random_program(opt.seed_base + c);
    if (opt.autotune) {
      // One bounded search per program.  The small budget (beam 2, one
      // mutation round, ≤16 simulations) keeps closed-loop iterations short;
      // the warm-up pass completes each search once, so the timed phase hits
      // the whole-result cache and whatever coalesces onto in-flight repeats.
      requests.push_back(CorpusRequest{
          ilp::strformat(R"({"id":%d,"kind":"autotune","source":"%s",)"
                         R"("issue":%d,"beam":2,"rounds":1,"max_sims":16})",
                         c, ilp::json_escape(src).c_str(), opt.issue),
          0});
      continue;
    }
    for (int sched = 0; sched < 2; ++sched) {
      if ((sched == 0 && !opt.run_list) || (sched == 1 && !opt.run_modulo)) continue;
      requests.push_back(CorpusRequest{
          ilp::strformat(R"({"id":%d,"kind":"compile","source":"%s","level":"lev4",)"
                         R"("issue":%d,"scheduler":"%s"})",
                         c, ilp::json_escape(src).c_str(), opt.issue,
                         kSchedulerNames[sched]),
          sched});
    }
  }

  // Warm-up: one sequential pass so every corpus cell lands in the daemon's
  // cache; the timed phases then measure service overhead, not compile time.
  if (opt.warmup) {
    ilp::server::LineClient warm;
    if (!warm.connect(opt.host, opt.port)) {
      std::fprintf(stderr, "ilp_loadgen: cannot connect to %s:%d\n",
                   opt.host.c_str(), opt.port);
      return 1;
    }
    for (const CorpusRequest& req : requests) {
      if (!warm.send_line(req.line) || !warm.recv_line(120'000)) {
        std::fprintf(stderr, "ilp_loadgen: warmup request failed\n");
        return 1;
      }
    }
  }

  // One timed phase per sweep point, one JSON record per line.
  auto lat = std::make_unique<LatencySinks>();  // too big for the stack
  std::uint64_t errors = 0;
  std::string first_error;
  std::vector<std::string> records;
  records.reserve(opt.connections.size());
  for (const int conns : opt.connections) {
    records.push_back(
        run_point(opt, requests, conns, *lat, &errors, &first_error));
    std::printf("%s\n", records.back().c_str());
    std::fflush(stdout);
  }

  if (!opt.out.empty()) {
    std::FILE* f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ilp_loadgen: cannot write %s\n", opt.out.c_str());
      return 1;
    }
    for (const std::string& r : records) std::fprintf(f, "%s\n", r.c_str());
    std::fclose(f);
  }
  if (errors > 0) {
    std::fprintf(stderr, "ilp_loadgen: %llu protocol errors (first: %s)\n",
                 static_cast<unsigned long long>(errors), first_error.c_str());
    return 1;
  }
  return 0;
}
