// Socket-level tests: a real Server on an ephemeral port, driven through the
// same LineClient that ilp_loadgen uses.  request_stop() here is exactly the
// code path ilpd's SIGTERM handler takes (one self-pipe write), so these
// tests are the drain story end to end: accepted requests answered, new
// connections refused, wait() returning only after both.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "common/fixtures.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "support/strings.hpp"

namespace ilp::server {
namespace {

ServiceConfig workers(int n) {
  ServiceConfig cfg;
  cfg.workers = n;
  return cfg;
}

JsonValue parse_ok(const std::string& line) {
  std::string err;
  auto v = JsonValue::parse(line, &err);
  EXPECT_TRUE(v.has_value()) << err << "\n" << line;
  return v.value_or(JsonValue{});
}

std::string compile_line(std::uint64_t seed, std::int64_t sleep_ms = 0) {
  std::string line = strformat(
      R"({"id": %llu, "kind": "compile", "source": "%s", "level": "lev1")",
      static_cast<unsigned long long>(seed),
      json_escape(ilp::testing::random_program(seed)).c_str());
  if (sleep_ms > 0) line += strformat(R"(, "debug_sleep_ms": %lld)",
                                      static_cast<long long>(sleep_ms));
  line += "}";
  return line;
}

std::string aps1_line(int id) {
  return strformat(
      R"({"id": %d, "kind": "compile", "workload": "APS-1", "level": "lev1"})"
      "\n",
      id);
}

// Waits until the service stops taking in lines (two equal counts in a row).
std::uint64_t settled_received(const Service& service) {
  std::uint64_t last = service.counters().received;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::uint64_t now = service.counters().received;
    if (now == last) return now;
    last = now;
  }
}

TEST(Server, ServesRequestsOverTcp) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_GT(server.port(), 0);

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_line(compile_line(8800)));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  const auto v = parse_ok(*reply);
  EXPECT_TRUE(v.find("ok")->as_bool()) << *reply;
  EXPECT_EQ(v.find("id")->as_int(), 8800);
  EXPECT_GT(v.find("cycles")->as_int(), 0);

  // Several requests on one connection; pipelined before any reply is read.
  ASSERT_TRUE(client.send_line(R"({"id": 1, "kind": "stats"})"));
  ASSERT_TRUE(client.send_line(compile_line(8800)));  // warm now
  const auto stats = parse_ok(client.recv_line().value_or(""));
  EXPECT_EQ(stats.find("kind")->as_string(), "stats");
  const auto warm = parse_ok(client.recv_line().value_or(""));
  EXPECT_TRUE(warm.find("cached")->as_bool());
}

TEST(Server, ConcurrentConnectionsAreServed) {
  Service service(workers(4));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  constexpr int kClients = 6;
  std::vector<std::future<bool>> done;
  done.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    done.push_back(std::async(std::launch::async, [&, i] {
      LineClient c;
      if (!c.connect("127.0.0.1", server.port())) return false;
      for (int r = 0; r < 3; ++r) {
        if (!c.send_line(compile_line(8900 + i))) return false;
        const auto reply = c.recv_line();
        if (!reply) return false;
        const auto v = JsonValue::parse(*reply);
        if (!v || !v->find("ok")->as_bool()) return false;
      }
      return true;
    }));
  }
  for (auto& f : done) EXPECT_TRUE(f.get());
}

TEST(Server, MalformedLineGetsBadRequestNotDisconnect) {
  Service service(workers(1));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_line("this is not json"));
  const auto reply = parse_ok(client.recv_line().value_or(""));
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->find("kind")->as_string(), "bad_request");

  // The connection survives the bad line.
  ASSERT_TRUE(client.send_line(R"({"kind": "stats"})"));
  EXPECT_TRUE(parse_ok(client.recv_line().value_or("")).find("ok")->as_bool());
}

// The SIGTERM drain, minus the signal: a request whose line was fully
// received before the stop completes with a real answer; connections arriving
// after the stop are refused at the kernel.
TEST(Server, GracefulDrainAnswersAcceptedRequests) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  const int port = server.port();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  ASSERT_TRUE(client.send_line(compile_line(8950, /*sleep_ms=*/400)));
  while (service.inflight_cells() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  server.request_stop();  // exactly what ilpd's SIGTERM handler calls
  server.wait();          // listener closed, accepted request answered, drained

  const auto reply = client.recv_line(1000);
  ASSERT_TRUE(reply.has_value()) << "accepted request was dropped by the drain";
  EXPECT_TRUE(parse_ok(*reply).find("ok")->as_bool()) << *reply;
  EXPECT_EQ(service.inflight_cells(), 0u);

  LineClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", port));  // refused after stop
}

// Hostile framing: a 400 KB line with no newline is refused once it passes
// the line-length limit (bad_request, then the connection closes) instead of
// growing the buffer, and a 10k-line pipelined burst is consumed in linear
// time.  The daemon keeps answering afterwards.
TEST(Server, OverlongLineAndPipelinedBurstLeaveServerHealthy) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  {
    LineClient hostile;
    ASSERT_TRUE(hostile.connect("127.0.0.1", server.port()));
    // The server stops reading mid-line, so the tail of this send may fail.
    (void)hostile.send_raw(std::string(400 * 1024, 'x'));
    const auto reply = hostile.recv_line(30'000);
    ASSERT_TRUE(reply.has_value()) << "over-long line got no reply";
    const auto v = parse_ok(*reply);
    EXPECT_FALSE(v.find("ok")->as_bool());
    EXPECT_EQ(v.find("error")->find("kind")->as_string(), "bad_request") << *reply;
    EXPECT_FALSE(hostile.recv_line(5'000).has_value())
        << "connection stayed open after the limit was broken";
  }

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(aps1_line(-1)));
  ASSERT_TRUE(parse_ok(client.recv_line().value_or("")).find("ok")->as_bool());

  constexpr int kBurst = 10'000;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) wire += aps1_line(i);
  std::thread writer([&] { EXPECT_TRUE(client.send_raw(wire)); });
  int answered = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto reply = client.recv_line(30'000);
    if (!reply) break;
    const auto v = parse_ok(*reply);
    if (!v.find("ok")->as_bool() || v.find("id")->as_int() != i) {
      ADD_FAILURE() << "burst reply " << i << ": " << *reply;
      break;
    }
    ++answered;
  }
  writer.join();
  EXPECT_EQ(answered, kBurst);

  LineClient probe;
  ASSERT_TRUE(probe.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(probe.send_line(R"({"kind": "stats"})"));
  EXPECT_TRUE(parse_ok(probe.recv_line().value_or("")).find("ok")->as_bool());
  EXPECT_GE(service.counters().bad_request, 1u);
}

// A 50 KB line of '[' — well under the line limit, so the JSON reader sees
// all of it — is answered bad_request on the same connection, and the
// daemon keeps answering.
TEST(Server, DeeplyNestedJsonLineIsBadRequestAndServerSurvives) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_line(std::string(50'000, '[')));
  const auto reply = client.recv_line(30'000);
  ASSERT_TRUE(reply.has_value()) << "deeply nested line got no reply";
  const auto v = parse_ok(*reply);
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("kind")->as_string(), "bad_request") << *reply;

  LineClient probe;
  ASSERT_TRUE(probe.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(probe.send_line(R"({"kind": "stats"})"));
  EXPECT_TRUE(parse_ok(probe.recv_line().value_or("")).find("ok")->as_bool());
}

// Output backpressure: a client that pipelines 100k requests without reading
// a reply stops being read once its queued replies pass the bound, instead of
// growing the connection's output queue with every line.  Once it reads, it
// gets every reply, in order.
TEST(Server, ClientThatStopsReadingIsNoLongerRead) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(aps1_line(-1)));
  ASSERT_TRUE(client.recv_line().has_value());
  const std::uint64_t before = service.counters().received;

  constexpr int kLines = 100'000;
  std::string wire;
  for (int i = 0; i < kLines; ++i) wire += aps1_line(i);
  std::thread writer([&] { EXPECT_TRUE(client.send_raw(wire)); });
  // Socket buffers hold some replies and the rest of the requests; the
  // server itself must have stopped well short of the whole burst.
  EXPECT_LT(settled_received(service) - before, 50'000u);

  int answered = 0;
  for (int i = 0; i < kLines; ++i) {
    const auto reply = client.recv_line(30'000);
    if (!reply || parse_ok(*reply).find("id")->as_int() != i) break;
    ++answered;
  }
  writer.join();
  EXPECT_EQ(answered, kLines);
}

// A connection paused at the output bound resumes once a flush brings it
// back under the bound, even when its peer has nothing more to send: the
// sockets are edge-triggered, so no new EPOLLIN comes for bytes already
// waiting.  A one-byte bound pauses the connection after every read batch,
// and each line is padded so one batch holds a few lines while the burst
// (about 60 KB, well inside the socket buffers) is sent whole before a
// single reply is read.
TEST(Server, PausedConnectionResumesWithoutNewInput) {
  Service service(workers(2));
  ServerConfig cfg;
  cfg.max_queued_output = 1;
  Server server(service, cfg);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(aps1_line(-1)));
  ASSERT_TRUE(client.recv_line().has_value());

  constexpr int kLines = 20;
  const std::string pad(3000, ' ');
  std::string wire;
  for (int i = 0; i < kLines; ++i) {
    std::string line = aps1_line(i);
    line.insert(line.size() - 2, pad);  // inside the object, before "}\n"
    wire += line;
  }
  ASSERT_TRUE(client.send_raw(wire));

  for (int i = 0; i < kLines; ++i) {
    const auto reply = client.recv_line(10'000);
    ASSERT_TRUE(reply.has_value()) << "no reply to line " << i;
    const auto v = parse_ok(*reply);
    EXPECT_TRUE(v.find("ok")->as_bool()) << *reply;
    EXPECT_EQ(v.find("id")->as_int(), i);
  }
}

// A peer that stops reading cannot hold the drain open: once it has taken
// none of its queued replies for a while, its connection is closed and
// wait() returns.
TEST(Server, DrainClosesAPeerThatStopsReading) {
  Service service(workers(2));
  Server server(service);
  ASSERT_TRUE(server.start()) << server.error();
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(aps1_line(-1)));
  ASSERT_TRUE(client.recv_line().has_value());

  std::string wire;
  for (int i = 0; i < 100'000; ++i) wire += aps1_line(i);
  // The send fails once the server gives up on the connection.
  std::thread writer([&] { (void)client.send_raw(wire); });
  settled_received(service);

  const auto t0 = std::chrono::steady_clock::now();
  server.request_stop();
  server.wait();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  writer.join();
}

TEST(Server, StopWithIdleConnectionsReturnsPromptly) {
  Service service(workers(1));
  ServerConfig fast_poll;
  fast_poll.poll_interval_ms = 10;
  Server server(service, fast_poll);
  ASSERT_TRUE(server.start()) << server.error();

  LineClient idle;
  ASSERT_TRUE(idle.connect("127.0.0.1", server.port()));

  const auto t0 = std::chrono::steady_clock::now();
  server.request_stop();
  server.wait();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // An idle connection must not hold the drain hostage; it is noticed within
  // a poll interval, not a socket timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_FALSE(idle.recv_line(200).has_value());  // server closed it
}

}  // namespace
}  // namespace ilp::server
