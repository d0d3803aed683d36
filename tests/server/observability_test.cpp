// End-to-end observability through the service layer: the `metrics` verb,
// per-request trace files, transformation counters in responses, and the
// latency histograms backing stats_json — via serve(line) — plus the epoll
// transport's per-loop and per-shard families over real sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "obs/prom_lint.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    const auto base = std::filesystem::temp_directory_path() /
                      ("ilp_obs_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter++));
    std::filesystem::create_directories(base);
    path = base.string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

JsonValue parse_ok(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

std::string compile_line(std::uint64_t seed, const char* level = "lev4",
                         bool trace = false) {
  return strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "%s", "issue": 8%s})",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str(), level,
      trace ? R"(, "trace": true)" : "");
}

TEST(Observability, MetricsVerbReturnsValidPrometheusExposition) {
  Service service(ServiceConfig{});
  // Give the histograms something to chew on.
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    parse_ok(service.serve(compile_line(seed)).to_line());

  const auto reply =
      parse_ok(service.serve(R"({"id": "m", "kind": "metrics"})").to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("kind")->as_string(), "metrics");
  EXPECT_EQ(reply.find("format")->as_string(), "prometheus-0.0.4");
  ASSERT_NE(reply.find("exposition"), nullptr);
  const std::string exposition = reply.find("exposition")->as_string();

  const auto problems = ilp::testing::lint_prometheus(exposition);
  EXPECT_TRUE(problems.empty()) << problems.front() << "\n--- exposition:\n"
                                << exposition;

  // The request-latency histogram must be present and non-empty: we just
  // served three compile requests.
  EXPECT_NE(exposition.find("# TYPE server_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_EQ(exposition.find("server_request_latency_seconds_count 0\n"),
            std::string::npos);
  // Service counters and gauges ride along.
  EXPECT_NE(exposition.find("server_requests_received"), std::string::npos);
  EXPECT_NE(exposition.find("server_queue_depth"), std::string::npos);
  EXPECT_NE(exposition.find("cache_memory_bytes"), std::string::npos);
  // Phase histograms from compute_cell.
  EXPECT_NE(exposition.find("server_phase_compile_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(exposition.find("server_phase_simulate_seconds_bucket"),
            std::string::npos);
}

// A live-out dot-product reduction: Lev4 must unroll it and expand the
// accumulator (without `out` the whole reduction is dead and DCE'd away).
constexpr const char* kDotProduct =
    "program dot\\narray A[256] fp\\narray B[256] fp\\n"
    "scalar s fp out\\nloop i = 0 to 255 { s = s + A[i] * B[i]; }\\n";

TEST(Observability, CompileResponseCarriesTransformCounters) {
  Service service(ServiceConfig{});
  const auto reply = parse_ok(service.serve(
      strformat(R"({"id": 1, "kind": "compile", "source": "%s", "level": "lev4"})",
                kDotProduct)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool()) << reply.find("error") << "\n";
  const JsonValue* t = reply.find("transforms");
  ASSERT_NE(t, nullptr);
  for (const char* key :
       {"loops_unrolled", "regs_renamed", "accs_expanded", "inds_expanded",
        "searches_expanded", "ops_combined", "strength_reduced",
        "trees_rebalanced", "ir_insts_before", "ir_insts_after"})
    ASSERT_NE(t->find(key), nullptr) << key;
  // Lev4 on a reducible accumulator loop must at least unroll and expand.
  EXPECT_GT(t->find("loops_unrolled")->as_int(), 0);
  EXPECT_GT(t->find("accs_expanded")->as_int(), 0);
  EXPECT_GT(t->find("ir_insts_before")->as_int(), 0);
  EXPECT_GE(t->find("ir_insts_after")->as_int(),
            t->find("ir_insts_before")->as_int());
  // And the response is tagged with the server-minted request id.
  ASSERT_NE(reply.find("request_id"), nullptr);
  EXPECT_EQ(reply.find("request_id")->as_string().rfind("r-", 0), 0u);
}

TEST(Observability, ConvCellReportsZeroTransforms) {
  Service service(ServiceConfig{});
  const auto reply = parse_ok(service.serve(
      strformat(R"({"id": 1, "kind": "compile", "source": "%s", "level": "conv"})",
                kDotProduct)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const JsonValue* t = reply.find("transforms");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("loops_unrolled")->as_int(), 0);
  EXPECT_EQ(t->find("regs_renamed")->as_int(), 0);
  EXPECT_EQ(t->find("accs_expanded")->as_int(), 0);
}

TEST(Observability, TracedRequestWritesChromeTraceWithCorrelatedSpans) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service service(cfg);

  const auto reply =
      parse_ok(service.serve(compile_line(42, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("request_id"), nullptr);
  const std::string rid = reply.find("request_id")->as_string();
  ASSERT_NE(reply.find("trace_file"), nullptr);
  const std::string trace_file = reply.find("trace_file")->as_string();
  ASSERT_TRUE(std::filesystem::exists(trace_file)) << trace_file;

  std::ifstream in(trace_file);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = parse_ok(ss.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // The trace must contain the request span, the engine job span, and at
  // least one compiler pass span — all tagged with this request's id.
  std::set<std::string> names;
  for (const JsonValue& ev : events->items()) {
    ASSERT_NE(ev.find("name"), nullptr);
    const JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr) << "span without args: " << ev.find("name")->as_string();
    ASSERT_NE(args->find("request_id"), nullptr);
    EXPECT_EQ(args->find("request_id")->as_string(), rid);
    names.insert(ev.find("name")->as_string());
  }
  EXPECT_TRUE(names.count("request")) << "missing request span";
  EXPECT_TRUE(names.count("job")) << "missing job span";
  bool has_pass = false;
  for (const std::string& n : names)
    if (n.rfind("pass.", 0) == 0) has_pass = true;
  EXPECT_TRUE(has_pass) << "no pass.* span in trace";
}

// The trace path lives only in the traced reply: an untraced repeat of a
// traced cell is served from the hot tier with exactly the bytes an untraced
// service gives its own warm repeat — no trace_file, no trace written.
TEST(Observability, UntracedRepeatOfTracedCellIsPlainHotHit) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service traced_service(cfg);
  const auto first = parse_ok(
      traced_service.serve(compile_line(45, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(first.find("ok")->as_bool());
  ASSERT_NE(first.find("trace_file"), nullptr);
  const std::string repeat = traced_service.serve(compile_line(45)).to_line();
  EXPECT_EQ(parse_ok(repeat).find("trace_file"), nullptr) << repeat;
  EXPECT_TRUE(parse_ok(repeat).find("cached")->as_bool()) << repeat;

  Service plain(cfg);
  plain.serve(compile_line(45));
  EXPECT_EQ(repeat, plain.serve(compile_line(45)).to_line());

  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(traces.path))
    ++files;
  EXPECT_EQ(files, 1u);  // only the traced request wrote one
}

// A traced request answered from the cache still gets its trace: the
// request span, named in the reply like an executed cell's.
TEST(Observability, TracedCacheHitStillWritesItsTrace) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service service(cfg);
  service.serve(compile_line(46));
  const auto reply =
      parse_ok(service.serve(compile_line(46, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_TRUE(reply.find("cached")->as_bool());
  ASSERT_NE(reply.find("trace_file"), nullptr);
  EXPECT_TRUE(std::filesystem::exists(reply.find("trace_file")->as_string()));
}

TEST(Observability, UntracedRequestsWriteNothing) {
  TempDir traces;
  ServiceConfig cfg;
  cfg.trace_dir = traces.path;
  Service service(cfg);
  parse_ok(service.serve(compile_line(43)).to_line());
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(traces.path))
    ++files;
  EXPECT_EQ(files, 0u);
}

TEST(Observability, TraceRequestWithoutTraceDirStillSucceeds) {
  Service service(ServiceConfig{});
  const auto reply =
      parse_ok(service.serve(compile_line(44, "lev4", /*trace=*/true)).to_line());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("trace_file"), nullptr);
}

TEST(Observability, StatsJsonExposesLatencyPercentilesAndGauges) {
  Service service(ServiceConfig{});
  // The latency histogram lives in the process-wide registry, so other
  // tests in this binary may already have fed it: assert on the delta.
  const auto before = parse_ok(service.serve(R"({"id": 1, "kind": "stats"})").to_line());
  const std::int64_t baseline =
      before.find("stats")->find("latency_us")->find("count")->as_int();
  for (std::uint64_t seed = 10; seed < 14; ++seed)
    parse_ok(service.serve(compile_line(seed)).to_line());
  const auto reply = parse_ok(service.serve(R"({"id": 2, "kind": "stats"})").to_line());
  const JsonValue* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* lat = stats->find("latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), baseline + 4);
  EXPECT_GT(lat->find("p50")->as_double(), 0.0);
  EXPECT_GE(lat->find("p99")->as_double(), lat->find("p50")->as_double());
  const JsonValue* pool = stats->find("pool");
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(pool->find("queue_depth"), nullptr);
  ASSERT_NE(pool->find("active_jobs"), nullptr);
  EXPECT_EQ(pool->find("queue_depth")->as_int(), 0);  // idle after the burst
  const JsonValue* cache = stats->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->find("memory_bytes")->as_int(), 0);
}

TEST(Observability, RequestIdsAreUniqueAndMonotonic) {
  Service service(ServiceConfig{});
  std::set<std::string> ids;
  for (std::uint64_t seed = 50; seed < 55; ++seed) {
    const auto reply = parse_ok(service.serve(compile_line(seed)).to_line());
    ASSERT_NE(reply.find("request_id"), nullptr);
    ids.insert(reply.find("request_id")->as_string());
  }
  EXPECT_EQ(ids.size(), 5u);
}

TEST(Observability, CachedRepeatStillGetsFreshRequestIdAndTransforms) {
  TempDir cache;
  ServiceConfig cfg;
  cfg.cache_dir = cache.path;
  Service service(cfg);
  const auto first = parse_ok(service.serve(compile_line(77)).to_line());
  const auto second = parse_ok(service.serve(compile_line(77)).to_line());
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  // v2 cache payloads round-trip the transformation counters.
  ASSERT_NE(second.find("transforms"), nullptr);
  EXPECT_EQ(second.find("transforms")->find("loops_unrolled")->as_int(),
            first.find("transforms")->find("loops_unrolled")->as_int());
  EXPECT_NE(first.find("request_id")->as_string(),
            second.find("request_id")->as_string());
}

// The value of one labeled sample in an exposition, or -1 if absent.
double sample_value(const std::string& exposition, const std::string& series) {
  const std::string head = series + " ";
  std::size_t pos = 0;
  while ((pos = exposition.find(head, pos)) != std::string::npos) {
    if (pos == 0 || exposition[pos - 1] == '\n')
      return std::strtod(exposition.c_str() + pos + head.size(), nullptr);
    pos += head.size();
  }
  return -1.0;
}

// Per-loop transport families: server_loop_connections counts each loop's
// open connections (round-robin hand-off puts two on each of two loops) and
// server_loop_inline_replies counts the hot hits each loop answered itself —
// which never touch a shard ring, so server_shard_dispatched stands still.
TEST(Observability, LoopFamiliesCountConnectionsAndInlineReplies) {
  ServiceConfig cfg;
  cfg.workers = 2;
  Service service(cfg);
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  std::vector<LineClient> clients(4);
  for (auto& c : clients) ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(clients[0].send_line(compile_line(90)));  // cold: one ring trip
  ASSERT_TRUE(clients[0].recv_line().has_value());

  auto scrape = [&] {
    LineClient m;
    EXPECT_TRUE(m.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(m.send_line(R"({"kind": "metrics"})"));
    return parse_ok(m.recv_line().value_or("")).find("exposition")->as_string();
  };
  auto dispatched = [](const std::string& e) {
    return sample_value(e, "server_shard_dispatched{shard=\"0\"}") +
           sample_value(e, "server_shard_dispatched{shard=\"1\"}");
  };
  auto inline_replies = [](const std::string& e, int loop) {
    return sample_value(
        e, strformat("server_loop_inline_replies{loop=\"%d\"}", loop));
  };
  const std::string before = scrape();
  EXPECT_TRUE(ilp::testing::lint_prometheus(before).empty());
  // The scrape's own connection is the fifth: loop 0 holds it, too.
  EXPECT_EQ(sample_value(before, "server_loop_connections{loop=\"0\"}"), 3.0)
      << before;
  EXPECT_EQ(sample_value(before, "server_loop_connections{loop=\"1\"}"), 2.0)
      << before;

  constexpr int kHitsPerConn = 5;
  for (auto& c : clients)
    for (int i = 0; i < kHitsPerConn; ++i) {
      ASSERT_TRUE(c.send_line(compile_line(90)));
      const auto v = parse_ok(c.recv_line().value_or(""));
      EXPECT_TRUE(v.find("cached")->as_bool());
    }

  const std::string after = scrape();
  // The only new ring trip is the second scrape's own metrics line.
  EXPECT_EQ(dispatched(after), dispatched(before) + 1)
      << "hot hits must not ride the shard rings";
  for (int loop = 0; loop < 2; ++loop)
    EXPECT_EQ(inline_replies(after, loop) - inline_replies(before, loop),
              2.0 * kHitsPerConn)
        << after;
}

}  // namespace
}  // namespace ilp::server
