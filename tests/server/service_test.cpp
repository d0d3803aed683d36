// Service-layer tests: admission control, request coalescing, deadlines and
// graceful drain, all through serve(line) — no sockets involved.  The
// debug_sleep_ms request field (part of the cell key) manufactures slow cells
// so overload and drain states are reachable deterministically.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    const auto base = std::filesystem::temp_directory_path() /
                      ("ilp_service_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter++));
    std::filesystem::create_directories(base);
    path = base.string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

ServiceConfig config(int workers, std::size_t queue_limit = 64,
                     std::string cache_dir = "") {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_limit = queue_limit;
  cfg.cache_dir = std::move(cache_dir);
  return cfg;
}

JsonValue parse_ok(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

std::string error_kind_of(const JsonValue& v) {
  const JsonValue* e = v.find("error");
  return e != nullptr && e->find("kind") != nullptr ? e->find("kind")->as_string()
                                                    : std::string();
}

// A compile request over a generated source; `sleep_ms` manufactures a slow
// cell (and is part of the cell key, so distinct sleeps never coalesce).
std::string compile_line(std::uint64_t seed, std::int64_t sleep_ms = 0,
                         std::int64_t deadline_ms = 0) {
  std::string line = strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "lev2", "issue": 8)",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str());
  if (sleep_ms > 0) line += strformat(R"(, "debug_sleep_ms": %lld)",
                                      static_cast<long long>(sleep_ms));
  if (deadline_ms > 0) line += strformat(R"(, "deadline_ms": %lld)",
                                         static_cast<long long>(deadline_ms));
  line += "}";
  return line;
}

TEST(Service, CompileRequestReturnsMeasuredCell) {
  Service service(config(2));
  const auto v = parse_ok(service.serve(
      R"({"id": 1, "kind": "compile", "workload": "APS-1", "level": "lev4"})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
  EXPECT_GT(v.find("cycles")->as_int(), 0);
  EXPECT_GT(v.find("base_cycles")->as_int(), v.find("cycles")->as_int());
  EXPECT_GT(v.find("speedup")->as_double(), 1.0);
  EXPECT_GT(v.find("registers")->find("fp")->as_int(), 0);
  EXPECT_FALSE(v.find("cached")->as_bool());
}

TEST(Service, RepeatRequestIsServedFromCache) {
  Service service(config(2));
  const std::string line = compile_line(9001);
  const auto first = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(first.find("ok")->as_bool()) << error_kind_of(first);
  EXPECT_FALSE(first.find("cached")->as_bool());

  const auto second = parse_ok(service.serve(line).to_line());
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(second.find("cycles")->as_int(), first.find("cycles")->as_int());
  EXPECT_EQ(service.counters().cells_executed, 1u);
}

TEST(Service, CacheSurvivesRestartThroughDiskTier) {
  TempDir dir;
  const std::string line = compile_line(9002);
  std::int64_t cycles = 0;
  {
    Service service(config(2, 64, dir.path));
    const auto v = parse_ok(service.serve(line).to_line());
    ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
    cycles = v.find("cycles")->as_int();
  }
  Service restarted(config(2, 64, dir.path));
  const auto v = parse_ok(restarted.serve(line).to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  EXPECT_TRUE(v.find("cached")->as_bool());
  EXPECT_EQ(v.find("cycles")->as_int(), cycles);
  EXPECT_EQ(restarted.counters().cells_executed, 0u);
}

// The bounded queue: capacity = workers + queue_limit = 1; a second distinct
// request while the first sleeps must be rejected immediately with
// `overloaded` — not parked, not hung.
TEST(Service, OverloadIsRejectedImmediately) {
  Service service(config(1, 0));
  ASSERT_EQ(service.capacity(), 1u);

  auto slow = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9100, /*sleep_ms=*/800)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const auto t0 = std::chrono::steady_clock::now();
  const auto v = parse_ok(service.serve(compile_line(9101)).to_line());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "overloaded");
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));  // never waits for the slot
  EXPECT_EQ(service.counters().overloaded, 1u);

  const auto ok = parse_ok(slow.get());
  EXPECT_TRUE(ok.find("ok")->as_bool()) << error_kind_of(ok);
}

TEST(Service, OverflowingBatchIsRejectedWhole) {
  Service service(config(1, 1));  // capacity 2
  const auto v = parse_ok(service.serve(
      R"({"kind": "batch", "workloads": ["APS-1"], "levels": ["conv"],)"
      R"( "widths": [1, 2, 4]})").to_line());  // 3 cells > capacity 2
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "overloaded");
  EXPECT_EQ(service.inflight_cells(), 0u);  // all-or-nothing admission
}

// Two identical in-flight requests coalesce onto one engine job.
TEST(Service, DuplicateInflightRequestsCoalesce) {
  Service service(config(2));
  const std::string line = compile_line(9200, /*sleep_ms=*/300);

  auto a = std::async(std::launch::async, [&] { return service.serve(line).to_line(); });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto b = std::async(std::launch::async, [&] { return service.serve(line).to_line(); });

  const auto ra = parse_ok(a.get());
  const auto rb = parse_ok(b.get());
  ASSERT_TRUE(ra.find("ok")->as_bool()) << error_kind_of(ra);
  ASSERT_TRUE(rb.find("ok")->as_bool()) << error_kind_of(rb);
  EXPECT_EQ(ra.find("cycles")->as_int(), rb.find("cycles")->as_int());

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.coalesced, 1u);       // the second arrival joined the first
  EXPECT_EQ(c.cells_executed, 1u);  // exactly one cell ran
}

// A compile's queue is the transport's dispatch ring: a line whose ring wait
// already used up its deadline is answered without executing or occupying an
// admission slot.
TEST(Service, DeadlineExceededWhileQueued) {
  Service service(config(1, 4));
  const std::uint64_t ring_wait_ns = 80'000'000;  // 80 ms against a 60 ms deadline
  const auto v = parse_ok(
      service.serve(compile_line(9301, /*sleep_ms=*/0, /*deadline_ms=*/60), ring_wait_ns)
          .to_line());
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(v), "deadline_exceeded");
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cells_executed, 0u);
  EXPECT_EQ(service.inflight_cells(), 0u);

  // The same line without the ring wait runs normally.
  const auto ok = parse_ok(
      service.serve(compile_line(9301, /*sleep_ms=*/0, /*deadline_ms=*/60)).to_line());
  EXPECT_TRUE(ok.find("ok")->as_bool()) << error_kind_of(ok);
}

// A joiner waits on its twin's future only as long as its own deadline; the
// executing request is unaffected and still answers ok.
TEST(Service, CoalescedJoinerDeadlineExceeded) {
  Service service(config(2));
  auto executor = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9302, /*sleep_ms=*/600)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Same cell key (debug_sleep_ms is part of it; deadline_ms is not).
  const auto t0 = std::chrono::steady_clock::now();
  const auto joiner = parse_ok(
      service.serve(compile_line(9302, /*sleep_ms=*/600, /*deadline_ms=*/60))
          .to_line());
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(error_kind_of(joiner), "deadline_exceeded");
  EXPECT_LT(waited, std::chrono::milliseconds(400));

  const auto ok = parse_ok(executor.get());
  EXPECT_TRUE(ok.find("ok")->as_bool()) << error_kind_of(ok);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.coalesced, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.cells_executed, 1u);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

// The deadline binds a cell that is already running: an executor whose own
// debug_sleep_ms outlives its deadline stops at the deadline.
TEST(Service, RunningExecutorDeadlineExceeded) {
  Service service(config(1));
  const auto t0 = std::chrono::steady_clock::now();
  const auto v = parse_ok(
      service.serve(compile_line(9303, /*sleep_ms=*/3000, /*deadline_ms=*/100))
          .to_line());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(error_kind_of(v), "deadline_exceeded");
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_EQ(service.counters().deadline_exceeded, 1u);
  EXPECT_EQ(service.counters().cells_executed, 0u);

  service.begin_drain();
  service.wait_drained();  // the stopped cell settled; nothing leaks
  EXPECT_EQ(service.inflight_cells(), 0u);
}

TEST(Service, BatchComputesFullCrossProduct) {
  Service service(config(4));
  const auto v = parse_ok(service.serve(
      R"({"id": 5, "kind": "batch", "workloads": ["APS-1", "SDS-1"],)"
      R"( "levels": ["conv", "lev4"], "widths": [1, 8]})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool()) << error_kind_of(v);
  const JsonValue* cells = v.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 8u);  // 2 workloads x 2 levels x 2 widths
  for (const JsonValue& cell : cells->items()) {
    EXPECT_EQ(cell.find("error")->as_string(), "");
    EXPECT_GT(cell.find("cycles")->as_int(), 0);
  }
  // Lev4@8 must beat Conv@1 for APS-1 (the paper's headline case).
  EXPECT_LT(cells->items()[3].find("cycles")->as_int(),
            cells->items()[0].find("cycles")->as_int());
  EXPECT_EQ(service.inflight_cells(), 0u);
}

TEST(Service, BatchReusesCompileCacheEntries) {
  Service service(config(2));
  parse_ok(service
               .serve(R"({"kind": "compile", "workload": "SDS-1", "level": "conv",)"
                      R"( "issue": 1})")
               .to_line());
  const std::uint64_t executed = service.counters().cells_executed;
  const auto v = parse_ok(
      service
          .serve(R"({"kind": "batch", "workloads": ["SDS-1"], "levels": ["conv"],)"
                 R"( "widths": [1]})")
          .to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  // The batch cell hit the entry the compile request stored: same key space.
  EXPECT_EQ(service.counters().cells_executed, executed);
}

// Drain: new work is refused with `shutting_down`, the sleeping request that
// was already admitted completes, and wait_drained() returns.
TEST(Service, DrainFinishesAdmittedWorkAndRefusesNew) {
  Service service(config(2));
  auto slow = std::async(std::launch::async, [&] {
    return service.serve(compile_line(9400, /*sleep_ms=*/400)).to_line();
  });
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  service.begin_drain();
  EXPECT_TRUE(service.draining());

  const auto refused = parse_ok(service.serve(compile_line(9401)).to_line());
  EXPECT_FALSE(refused.find("ok")->as_bool());
  EXPECT_EQ(error_kind_of(refused), "shutting_down");

  // Stats must still answer during a drain (that is how drains are observed).
  const auto stats = parse_ok(service.serve(R"({"kind": "stats"})").to_line());
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_TRUE(stats.find("stats")->find("draining")->as_bool());

  service.wait_drained();
  EXPECT_EQ(service.inflight_cells(), 0u);
  const auto done = parse_ok(slow.get());
  EXPECT_TRUE(done.find("ok")->as_bool()) << error_kind_of(done);
}

TEST(Service, MalformedAndUnknownInputsProduceProtocolErrors) {
  Service service(config(1));
  EXPECT_EQ(error_kind_of(parse_ok(service.serve("{{{{").to_line())), "bad_request");
  EXPECT_EQ(error_kind_of(parse_ok(service.serve(
                R"({"kind": "compile", "workload": "NOPE-99"})").to_line())),
            "bad_request");
  const auto compile_err = parse_ok(service.serve(
      R"({"kind": "compile", "source": "program broken\nloop i = {"})").to_line());
  EXPECT_EQ(error_kind_of(compile_err), "compile_error");
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.bad_request, 2u);
  EXPECT_EQ(c.compile_errors, 1u);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

// Hostile nesting in either language a request carries is a protocol error,
// not a crash: 50k '[' in the JSON is bad_request, 50k '(', a 20k-term sum
// or 10k nested loops in the DSL source is compile_error, and the service
// keeps answering.
TEST(Service, DeepNestingIsAnErrorNotACrash) {
  Service service(config(1));
  EXPECT_EQ(error_kind_of(parse_ok(service.serve(std::string(50'000, '[')).to_line())),
            "bad_request");
  const std::string deep_json =
      R"({"kind": "compile", "workload": "APS-1", "x": )" + std::string(50'000, '[');
  EXPECT_EQ(error_kind_of(parse_ok(service.serve(deep_json).to_line())), "bad_request");

  const std::string head = "program p\nscalar s int out\ns = ";
  std::string long_sum = head + "1";
  for (int i = 0; i < 20'000; ++i) long_sum += "+1";
  std::string deep_loops = "program p\nscalar s fp out\n";
  for (int k = 0; k < 10'000; ++k) deep_loops += strformat("loop i%d = 0 to 1 {\n", k);
  deep_loops += "s = 1.0;\n";
  for (int k = 0; k < 10'000; ++k) deep_loops += "}\n";
  for (const std::string& source :
       {head + std::string(50'000, '(') + "1" + std::string(50'000, ')') + ";\n",
        long_sum + ";\n", deep_loops}) {
    const auto v = parse_ok(
        service.serve(R"({"kind": "compile", "source": ")" + json_escape(source) +
                      R"("})")
            .to_line());
    EXPECT_EQ(error_kind_of(v), "compile_error");
  }

  const auto stats = parse_ok(service.serve(R"({"kind": "stats"})").to_line());
  EXPECT_TRUE(stats.find("ok")->as_bool());
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.bad_request, 2u);
  EXPECT_EQ(c.compile_errors, 3u);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

TEST(Service, StatsReflectTraffic) {
  Service service(config(2));
  parse_ok(service.serve(compile_line(9500)).to_line());
  parse_ok(service.serve(compile_line(9500)).to_line());  // hot-tier hit
  const auto v = parse_ok(service.serve(R"({"id": 9, "kind": "stats"})").to_line());
  ASSERT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("id")->as_int(), 9);
  const JsonValue* stats = v.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->find("received")->as_int(), 3);
  EXPECT_EQ(stats->find("cells_executed")->as_int(), 1);
  EXPECT_EQ(stats->find("workers")->as_int(), 2);
  // The repeat is answered from the hot tier, above the result cache.
  EXPECT_EQ(stats->find("requests")->find("hot_hits")->as_int(), 1);
}

}  // namespace
}  // namespace ilp::server
