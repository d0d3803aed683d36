// Shard-per-core TCP front end for the service: newline-delimited JSON over
// non-blocking epoll event loops, lock-free dispatch rings, and zero-copy
// writev responses.
//
// Threading model (per Server, with N = the service's shard count):
//
//   listener ─► loop 0 ─┬─ round-robin hand-off ─► loops 1..N-1
//                       │
//   each loop ──► hot-tier hit? ── yes ──► reply inline on the loop
//        ▲                 └────── no ───► shard k's MPSC dispatch ring
//        │                                        │
//        └──── that loop's completion ring ◄── shard worker k
//
//   * There are N event loops, one per shard (`--workers N` gives N loops
//     and N workers).  Loop 0 owns the listening socket and the stop
//     eventfd; it hands each accepted socket to the loops in round-robin
//     order through a small mutex-guarded inbox plus an eventfd wake (not
//     SO_REUSEPORT, whose hashing can pile most connections onto one loop).
//   * A loop owns its connections outright: it does edge-triggered
//     non-blocking reads with per-connection buffering (partial NDJSON lines
//     wait for the next readable event; a line longer than 256 KiB is
//     answered `bad_request` and the connection closes once flushed), parses
//     each complete line once (Service::parse_and_route), and asks
//     Service::try_serve_hot for an answer.  A warm compile — the
//     pre-serialized response segments of its cell are in the hot tier — is
//     answered right there, with no thread hop.
//   * Every other line (misses, batch, autotune, traced compiles, errors) is
//     pushed onto the dispatch ring of the shard that owns the request's
//     content hash, so identical requests always reach the same shard worker
//     and a cold compile never blocks a loop.  The worker executes it inline
//     (Service::serve_parsed) and pushes the reply onto the completion ring
//     of the loop that dispatched it.  Rings are bounded and cache-line
//     padded (support/mpsc_ring.hpp); a full dispatch ring answers
//     `overloaded` immediately instead of blocking the loop, counted in the
//     server.shard_ring_drops counter.  So does a loop whose completion ring
//     is spoken for: it never has more requests outstanding than that ring
//     holds, so a worker's push always succeeds and never waits on a loop.
//   * Each loop sequences replies per connection (pipelined requests may
//     complete out of order — inline hits overtake ring work; responses are
//     emitted strictly in request order) and writes them with one gathered
//     sendmsg per read batch straight from the service's pre-serialized
//     response segments.  A connection whose peer leaves more than 1 MiB
//     (max_queued_output) of replies unread stops reading; any flush that
//     brings it back under the bound resumes reading.
//   * Wakeups are eventfd-based and gated: a producer only issues the write
//     syscall when the consumer has announced it is parked, so a pipelined
//     burst costs one wakeup, not one per line.  Every park also has a
//     poll_interval_ms timeout as a lost-wakeup backstop.
//
// Drain contract (the SIGTERM story): request_stop() writes one byte to an
// eventfd — the only async-signal-safe operation involved.  Loop 0 wakes,
// closes the listening socket (new connections are refused by the kernel
// from that instant), flips the service into drain mode, and wakes the other
// loops.  Each loop then stops reading: every complete line it received
// before that point is still dispatched and answered (possibly with
// `shutting_down` if the service refused it); partial lines are abandoned.
// Connections close once their last reply is flushed (a peer that stops
// reading them is cut off after half a second without progress), idle
// connections close immediately, and a loop with no connection left
// retires.  Loop 0 finishes last: once it and every other loop have retired
// it stops and joins the shard workers, and wait() returns only after the
// service reports zero in-flight cells — no admitted work is ever dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/service.hpp"
#include "support/mpsc_ring.hpp"

namespace ilp::server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = kernel-assigned ephemeral port (see Server::port())
  // Lost-wakeup backstop for every parked thread (epoll_wait timeout, worker
  // ring poll); also bounds drain latency.
  int poll_interval_ms = 50;
  // Per-shard dispatch ring capacity (rounded up to a power of two).  A full
  // ring is explicit backpressure: the line is answered `overloaded` without
  // ever blocking an event loop.
  std::size_t ring_capacity = 1024;
  // Output backpressure: a connection stops reading requests while this
  // many reply bytes wait for its peer to read them, so a client that
  // pipelines without reading cannot grow the queue without bound.
  std::size_t max_queued_output = 1 << 20;
};

class Server {
 public:
  Server(Service& service, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns one event loop and one worker per service shard.
  // Returns false (with a message in error()) if the address cannot be bound.
  bool start();
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::size_t loop_count() const { return loops_.size(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // Async-signal-safe shutdown trigger (writes to the stop eventfd).
  void request_stop();
  // Blocks until the drain completes: listener closed, every accepted
  // request answered and flushed, workers joined, service drained.
  void wait();
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

 private:
  // One request in flight between an event loop and a shard worker.
  struct Dispatch {
    std::uint32_t loop = 0;  // the loop that owns the connection
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  // per-connection arrival number
    Service::ParsedRequest parsed;
    std::uint64_t enqueued_ns = 0;  // Stopwatch origin for ring wait
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Reply reply;
  };
  // A shard's dispatch lane.  Padded: the ring cursors inside already are,
  // this keeps the per-lane flags of neighbours apart too.
  struct alignas(64) Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    MpscRing<Dispatch> ring;
    int efd = -1;                     // worker parks here
    std::atomic<bool> parked{false};  // gate for the producer-side wakeup
    std::atomic<std::uint64_t> drops{0};       // ring-full rejections
    std::atomic<std::uint64_t> dispatched{0};  // lines routed to this lane
    std::thread thread;
  };
  struct Conn;
  // One connection-owning event loop.  The atomics and the inbox are shared;
  // everything below `conns` is touched by the loop's own thread only.
  struct alignas(64) Loop {
    explicit Loop(std::size_t completion_capacity);  // out of line: Conn is
    ~Loop();                                         // complete only there
    std::uint32_t index = 0;
    int epoll_fd = -1;
    int wake_efd = -1;  // completions pending, inbox hand-off, drain start
    std::atomic<bool> parked{false};  // gate for the producer-side wakeup
    MpscRing<Completion> completions;
    std::mutex inbox_mu;
    std::vector<int> inbox;  // accepted sockets handed over by loop 0
    // Set once the loop has drained every connection and stopped.
    std::atomic<bool> retired{false};
    std::atomic<std::uint64_t> connections{0};     // gauge
    std::atomic<std::uint64_t> inline_replies{0};  // hot hits answered here

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    // Conn ids share the epoll tag space with the listener (0), the stop
    // eventfd (1) and the wake eventfd (2), so they start above those.
    std::uint64_t next_conn_id = 3;
    std::vector<std::uint64_t> dead_conns;  // deferred erase within one batch
    std::vector<std::uint64_t> ending;  // conns that stopped reading
    // Requests pushed to a shard whose completion this loop has not popped
    // yet; never more than the completion ring holds.
    std::size_t outstanding = 0;
    bool draining = false;  // this loop has seen the stop
    std::thread thread;
  };

  void loop_run(Loop& L);
  void worker_loop(std::size_t shard);
  void begin_drain();  // loop 0: close the listener, wake every loop
  void begin_loop_drain(Loop& L);
  void finish_drain();
  void accept_ready(Loop& L0);
  void adopt_inbox(Loop& L);
  void adopt(Loop& L, int fd);
  void conn_ready(Loop& L, Conn& c);
  void read_input(Loop& L, Conn& c);
  void dispatch_lines(Loop& L, Conn& c);
  void route_line(Loop& L, Conn& c, std::string_view line);
  void reject_long_line(Loop& L, Conn& c);
  void stop_reading(Loop& L, Conn& c);
  void drain_completions(Loop& L);
  void on_reply(Conn& c, std::uint64_t seq, Reply r);
  void finish_io(Loop& L, Conn& c);  // flush, then close if broken or done
  bool flush_conn(Loop& L, Conn& c);  // false => connection must be closed
  void close_conn(Loop& L, Conn& c);
  void maybe_finish_conn(Loop& L, Conn& c);
  void discard_input(Loop& L, Conn& c);
  void expire_stalled(Loop& L);
  void reap(Loop& L);
  static void wake(int efd);
  void append_transport_metrics(std::string& out) const;

  Service& service_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  int stop_efd_ = -1;  // request_stop() -> loop 0
  int port_ = 0;
  std::string error_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> workers_stop_{false};

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::size_t next_loop_ = 0;  // loop 0 only: round-robin hand-off cursor
};

}  // namespace ilp::server
