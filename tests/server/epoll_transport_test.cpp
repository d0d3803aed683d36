// Transport-equivalence tests: the epoll/writev path must be byte-identical
// to the in-process serve(line).to_line() path, and pipelined replies must
// come back in request order even when shards complete out of order.
//
// Byte-identity is the acceptance contract for the zero-copy response split
// (protocol.hpp CompileBody): a warm reply assembled from pre-serialized
// segments via writev and a cold reply built as one string must be the same
// bytes on the wire.  Two identically-configured Services are driven with
// the same line sequence — one through serve(line), one through a real
// Server socket — so the minted request ids (r-<n>) line up and the replies
// can be compared verbatim.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

ServiceConfig workers(int n) {
  ServiceConfig cfg;
  cfg.workers = n;
  return cfg;
}

std::string compile_line(std::uint64_t seed, const char* extra = "") {
  return strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "lev4", "issue": 8%s})",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str(), extra);
}

// The fuzz-corpus sequence both paths replay: cold compiles, warm repeats
// (the zero-copy segment path), the modulo backend, a parse error, an
// unknown workload and a named-workload compile.  Batch is excluded — its
// response embeds wall-clock timing and can never be byte-stable.
std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 9'100; seed < 9'104; ++seed)
    lines.push_back(compile_line(seed));
  lines.push_back(compile_line(9'100));  // warm repeat: cached=true segments
  lines.push_back(compile_line(9'101));
  lines.push_back(compile_line(9'102, R"(, "scheduler": "modulo")"));
  lines.push_back(compile_line(9'102, R"(, "scheduler": "modulo")"));  // warm
  lines.push_back("{\"kind\": \"compile\"");                 // parse error
  lines.push_back(R"({"id": 7, "kind": "compile", "workload": "no-such", "level": "lev1"})");
  lines.push_back(R"({"id": 8, "kind": "compile", "workload": "APS-1", "level": "lev2"})");
  return lines;
}

TEST(EpollTransport, RepliesAreByteIdenticalToHandleLine) {
  const std::vector<std::string> lines = corpus_lines();

  // Reference: the in-process path, one fresh service.
  std::vector<std::string> expected;
  {
    Service reference(workers(2));
    expected.reserve(lines.size());
    for (const std::string& line : lines)
      expected.push_back(reference.serve(line).to_line());
  }

  // Same sequence over a real socket, sequentially so the request-id mint
  // stays aligned with the reference service.
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(client.send_line(lines[i]));
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to line " << i;
    EXPECT_EQ(*reply, expected[i]) << "transport changed the bytes of line " << i;
  }
}

// Pipelined requests on one connection complete on different shards in
// whatever order the work dictates; the replies must still be emitted in
// request order.  The first request sleeps, so every later (fast, warm)
// request finishes before it — any reordering bug surfaces immediately.
TEST(EpollTransport, PipelinedRepliesKeepRequestOrder) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Warm the fast cells first so the pipelined phase is pure dispatch.
  for (std::uint64_t seed = 9'200; seed < 9'204; ++seed) {
    ASSERT_TRUE(client.send_line(compile_line(seed)));
    ASSERT_TRUE(client.recv_line(30'000).has_value());
  }

  std::vector<std::string> batch;
  batch.push_back(compile_line(9'210, R"(, "debug_sleep_ms": 200)"));
  for (std::uint64_t seed = 9'200; seed < 9'204; ++seed)
    batch.push_back(compile_line(seed));
  std::string wire;
  for (const std::string& line : batch) wire += line + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to pipelined line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    EXPECT_TRUE(v->find("ok")->as_bool()) << *reply;
    const std::int64_t want = i == 0 ? 9'210 : static_cast<std::int64_t>(9'199 + i);
    EXPECT_EQ(v->find("id")->as_int(), want)
        << "reply " << i << " out of order: " << *reply;
  }
}

// A full dispatch ring is explicit backpressure: the line is answered
// `overloaded` by the transport itself, still in request order, and the
// connection survives.  The burst is cold (distinct seeds): warm repeats are
// answered on the event loop and never reach the ring.
TEST(EpollTransport, FullRingAnswersOverloadedInOrder) {
  Service service(workers(1));
  ServerConfig cfg;
  cfg.ring_capacity = 1;
  Server server(service, cfg);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Pipeline one sleeper to occupy the only shard worker plus a burst of
  // cold cells that must overflow the tiny ring.
  constexpr int kBurst = 10;
  std::string wire = compile_line(9'301, R"(, "debug_sleep_ms": 300)") + "\n";
  for (int i = 0; i < kBurst; ++i) wire += compile_line(9'310 + i) + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  int ok = 0, overloaded = 0;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < kBurst + 1; ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to burst line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    ids.push_back(v->find("id")->as_int());
    if (v->find("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(v->find("error")->find("kind")->as_string(), "overloaded");
      ++overloaded;
    }
  }
  // The sleeper always completes; the ring holds at most two lines, so most
  // of the burst is shed.
  EXPECT_GE(ok, 1);
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(ok + overloaded, kBurst + 1);
  // Replies stay in request order even when some are transport-synthesized.
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kBurst + 1));
  EXPECT_EQ(ids.front(), 9'301);
  for (std::size_t i = 1; i < ids.size(); ++i)
    EXPECT_EQ(ids[i], static_cast<std::int64_t>(9'309 + i));
}

// Warm repeats are answered on the event loop, so even with the only shard
// worker asleep and a ring too small to queue them they are all served, and
// they wait for the sleeper's reply to keep request order.
TEST(EpollTransport, WarmRepeatsBehindSleeperAreServedInOrder) {
  Service service(workers(1));
  ServerConfig cfg;
  cfg.ring_capacity = 1;
  Server server(service, cfg);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  ASSERT_TRUE(client.send_line(compile_line(9'300)));
  ASSERT_TRUE(client.recv_line(30'000).has_value());
  const std::uint64_t hot_before = service.counters().hot_hits;

  constexpr int kBurst = 10;
  std::string wire = compile_line(9'302, R"(, "debug_sleep_ms": 300)") + "\n";
  for (int i = 0; i < kBurst; ++i) wire += compile_line(9'300) + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  for (int i = 0; i < kBurst + 1; ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to burst line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    EXPECT_TRUE(v->find("ok")->as_bool()) << *reply;
    EXPECT_EQ(v->find("id")->as_int(), i == 0 ? 9'302 : 9'300)
        << "reply " << i << " out of order: " << *reply;
    if (i > 0) {
      EXPECT_TRUE(v->find("cached")->as_bool()) << *reply;
    }
  }
  EXPECT_EQ(service.counters().hot_hits - hot_before,
            static_cast<std::uint64_t>(kBurst));
}

// --- Several event loops ---------------------------------------------------

constexpr int kLoops = 2;
constexpr int kConns = 4;  // round-robin: two connections per loop

// A connection's line sequence: its own cold cells, warm repeats of them,
// a cell another connection (on the other loop) warmed, and an error.
std::vector<std::string> connection_lines(int conn) {
  const std::uint64_t base = 9'400 + 10 * static_cast<std::uint64_t>(conn);
  std::vector<std::string> lines;
  lines.push_back(compile_line(base));
  lines.push_back(compile_line(base + 1, R"(, "scheduler": "modulo")"));
  lines.push_back(compile_line(base));  // warm: answered on this loop
  lines.push_back(compile_line(base + 1, R"(, "scheduler": "modulo")"));
  lines.push_back(compile_line(9'400));  // conn 0's cell, hot for conn > 0
  lines.push_back("{\"kind\": \"compile\"");  // parse error
  lines.push_back(compile_line(base, R"(, "profile": true)"));
  lines.push_back(compile_line(base, R"(, "profile": true)"));
  return lines;
}

// One reference service sees the global interleaving the sockets see, so
// request ids line up and every connection's replies can be compared
// verbatim, whichever loop served them.
TEST(MultiLoop, RepliesAreByteIdenticalToHandleLinePerConnection) {
  std::vector<std::vector<std::string>> lines(kConns);
  for (int k = 0; k < kConns; ++k) lines[k] = connection_lines(k);

  std::vector<std::vector<std::string>> expected(kConns);
  {
    Service reference(workers(kLoops));
    for (std::size_t i = 0; i < lines[0].size(); ++i)
      for (int k = 0; k < kConns; ++k)
        expected[k].push_back(reference.serve(lines[k][i]).to_line());
  }

  Service service(workers(kLoops));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_EQ(server.loop_count(), static_cast<std::size_t>(kLoops));
  std::vector<LineClient> clients(kConns);
  for (auto& c : clients) ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < lines[0].size(); ++i) {
    for (int k = 0; k < kConns; ++k) {
      ASSERT_TRUE(clients[k].send_line(lines[k][i]));
      const auto reply = clients[k].recv_line(30'000);
      ASSERT_TRUE(reply.has_value()) << "conn " << k << " line " << i;
      EXPECT_EQ(*reply, expected[k][i])
          << "transport changed the bytes of conn " << k << " line " << i;
    }
  }

  // The connections really were spread: both loops own two and both
  // answered hot hits inline.
  const std::string metrics = service.metrics_exposition();
  for (int loop = 0; loop < kLoops; ++loop) {
    const std::string tag = strformat("{loop=\"%d\"} ", loop);
    EXPECT_NE(metrics.find("server_loop_connections" + tag + "2\n"),
              std::string::npos)
        << metrics;
    EXPECT_EQ(metrics.find("server_loop_inline_replies" + tag + "0\n"),
              std::string::npos)
        << metrics;
  }
}

// Every connection pipelines a cold sleeper, cold cells and warm hits at
// once; each gets its replies back in its own request order, whichever
// shard or loop produced them.
TEST(MultiLoop, PipelinedRepliesKeepPerConnectionOrder) {
  Service service(workers(kLoops));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  {  // warm the shared cells
    LineClient warm;
    ASSERT_TRUE(warm.connect("127.0.0.1", server.port()));
    for (std::uint64_t seed = 9'500; seed < 9'504; ++seed) {
      ASSERT_TRUE(warm.send_line(compile_line(seed)));
      ASSERT_TRUE(warm.recv_line(30'000).has_value());
    }
  }

  std::vector<std::future<std::string>> done;
  for (int k = 0; k < kConns; ++k)
    done.push_back(std::async(std::launch::async, [&, k]() -> std::string {
      LineClient c;
      if (!c.connect("127.0.0.1", server.port())) return "connect failed";
      std::vector<std::uint64_t> ids;
      ids.push_back(9'600 + k);  // the sleeper
      for (int r = 0; r < 3; ++r) {
        for (std::uint64_t seed = 9'500; seed < 9'504; ++seed) ids.push_back(seed);
        ids.push_back(9'610 + 10 * k + r);  // cold
      }
      std::string wire;
      for (std::size_t i = 0; i < ids.size(); ++i)
        wire += compile_line(ids[i], i == 0 ? R"(, "debug_sleep_ms": 100)" : "") +
                "\n";
      if (!c.send_raw(wire)) return "send failed";
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto reply = c.recv_line(30'000);
        if (!reply) return strformat("conn %d: no reply %zu", k, i);
        const auto v = JsonValue::parse(*reply);
        if (!v || !v->find("ok")->as_bool())
          return strformat("conn %d: reply %zu not ok: %s", k, i, reply->c_str());
        if (v->find("id")->as_int() != static_cast<std::int64_t>(ids[i]))
          return strformat("conn %d: reply %zu out of order: %s", k, i,
                           reply->c_str());
      }
      return "";
    }));
  for (auto& f : done) EXPECT_EQ(f.get(), "");
}

// SIGTERM while every connection is still streaming: each connection gets a
// reply, in order, for every line the server took in — so the replies
// clients read add up to the service's received counter — and then EOF.
TEST(MultiLoop, DrainMidStreamAnswersEveryReceivedLine) {
  Service service(workers(kLoops));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  {
    LineClient warm;
    ASSERT_TRUE(warm.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(warm.send_line(compile_line(9'700)));
    ASSERT_TRUE(warm.recv_line(30'000).has_value());
  }
  const std::uint64_t received_before = service.counters().received;

  std::atomic<int> replies{0};
  struct Result {
    int replies = 0;
    std::string error;
  };
  std::vector<std::future<Result>> done;
  for (int k = 0; k < kConns; ++k)
    done.push_back(std::async(std::launch::async, [&, k]() -> Result {
      Result res;
      LineClient c;
      if (!c.connect("127.0.0.1", server.port())) {
        res.error = "connect failed";
        return res;
      }
      // Lines carry their position as the id; every eighth is cold.
      auto line = [k](int i) {
        const std::uint64_t seed =
            i % 8 == 7 ? 9'710 + 1000 * static_cast<std::uint64_t>(k) + i : 9'700;
        std::string l = compile_line(seed);
        return "{\"id\": " + std::to_string(i) + l.substr(l.find(','));
      };
      // The writer stays at most kWindow lines ahead of the replies, so the
      // cold lines never fill a ring (an `overloaded` answer is not what
      // this test is about), however slow the build.
      constexpr int kWindow = 256;
      std::atomic<bool> got_eof{false};
      std::atomic<int> answered{0};
      std::thread writer([&c, &got_eof, &answered, line] {
        for (int i = 0; i < 100'000 && !got_eof.load(); ++i) {
          while (i - answered.load() >= kWindow && !got_eof.load())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          if (!c.send_line(line(i))) return;  // the server closed
          if (i % 8 == 7) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      for (;;) {
        const auto reply = c.recv_line(30'000);
        if (!reply) break;  // EOF once the drain closed us
        const auto v = JsonValue::parse(*reply);
        if (!v) {
          res.error = "unparsable reply: " + *reply;
          break;
        }
        if (v->find("id")->as_int() != res.replies) {
          res.error = strformat("conn %d: reply %d out of order: %s", k,
                                res.replies, reply->c_str());
          break;
        }
        if (!v->find("ok")->as_bool() &&
            v->find("error")->find("kind")->as_string() != "shutting_down") {
          res.error = "unexpected error reply: " + *reply;
          break;
        }
        ++res.replies;
        answered.store(res.replies);
        replies.fetch_add(1);
      }
      got_eof.store(true);
      writer.join();
      return res;
    }));

  while (replies.load() < 200)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.request_stop();
  server.wait();

  int total = 0;
  for (auto& f : done) {
    const Result r = f.get();
    EXPECT_EQ(r.error, "");
    EXPECT_GT(r.replies, 0);
    total += r.replies;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            service.counters().received - received_before);
  EXPECT_EQ(service.inflight_cells(), 0u);
}

// Cold traffic skewed onto one loop: the loop never has more requests
// outstanding at the workers than its completion ring holds, so a worker's
// push always succeeds.  Past that share the loop answers `overloaded`
// itself, in request order.  Four lanes of 4 slots plus 4 executing
// requests can owe 20 replies; the 32-slot total splits into 8 per loop.
TEST(MultiLoop, SkewedColdTrafficIsBoundedByTheCompletionRing) {
  Service service(workers(4));
  ServerConfig cfg;
  cfg.ring_capacity = 4;
  Server server(service, cfg);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_EQ(server.loop_count(), 4u);
  LineClient client;  // the only connection: every request lands on loop 0
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Each admitted cell sleeps, so no completion frees a slot while the
  // burst is read.
  constexpr int kBurst = 40;
  constexpr int kLoopShare = 8;
  std::string wire;
  for (int i = 0; i < kBurst; ++i)
    wire += compile_line(9'800 + i, R"(, "debug_sleep_ms": 300)") + "\n";
  ASSERT_TRUE(client.send_raw(wire));

  int ok = 0, overloaded = 0, completion_full = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto reply = client.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to burst line " << i;
    const auto v = JsonValue::parse(*reply);
    ASSERT_TRUE(v.has_value()) << *reply;
    EXPECT_EQ(v->find("id")->as_int(), 9'800 + i) << "reply out of order";
    if (v->find("ok")->as_bool()) {
      ++ok;
      continue;
    }
    const JsonValue* err = v->find("error");
    EXPECT_EQ(err->find("kind")->as_string(), "overloaded") << *reply;
    ++overloaded;
    if (err->find("message")->as_string().find("completion ring") !=
        std::string::npos)
      ++completion_full;
  }
  EXPECT_EQ(ok, kLoopShare);
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(completion_full, 0);

  // Once the completions are popped the loop admits work again.
  ASSERT_TRUE(client.send_line(compile_line(9'890)));
  const auto reply = client.recv_line(30'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(JsonValue::parse(*reply)->find("ok")->as_bool()) << *reply;
}

}  // namespace
}  // namespace ilp::server
