#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <linux/sockios.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Wire literals for segment-assembled replies.  Byte-for-byte the pieces
// assemble_compile_response() glues around the shared CompileBody segments —
// the transport-equivalence test pins the two paths together.
constexpr std::string_view kIdPrefix = "{\"id\": ";
constexpr std::string_view kTrue = "true";
constexpr std::string_view kFalse = "false";
constexpr std::string_view kReqIdPrefix = ", \"request_id\": \"";
constexpr std::string_view kSegTail = "\"}\n";

// A connection this side ends (the drain, a broken line limit) is shut down
// for writing once its replies are flushed and closed once the peer hangs
// up: closing with the peer's bytes unread would reset the connection and
// destroy replies the kernel has not transmitted yet.  A peer that takes
// none of our output for this long is closed anyway, so no client can hold
// a drain open.
constexpr std::uint64_t kStallNs = 500'000'000;

// Longest request line a connection may send.  A longer line — or that many
// bytes without a newline — is answered `bad_request` and the connection
// closes once the reply is flushed, so no peer can grow its input buffer
// without bound.
constexpr std::size_t kMaxLineBytes = 256 * 1024;

// At most this many segments describe one reply on the wire.
constexpr std::size_t kMaxSegments = 8;

// Fills `segs` with the reply's wire segments; returns the count.  Flat
// replies must already carry their trailing newline.
std::size_t reply_segments(const Reply& r,
                           std::array<std::string_view, kMaxSegments>& segs) {
  if (r.body == nullptr) {
    segs[0] = r.flat;
    return 1;
  }
  segs = {kIdPrefix, r.id_json,           r.body->pre, r.cached ? kTrue : kFalse,
          r.body->post, kReqIdPrefix, r.request_id, kSegTail};
  return kMaxSegments;
}

std::size_t reply_wire_size(const Reply& r) {
  std::array<std::string_view, kMaxSegments> segs;
  const std::size_t n = reply_segments(r, segs);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += segs[i].size();
  return total;
}

}  // namespace

// Per-connection transport state; owned and touched by its loop's thread only.
struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string inbuf;         // unconsumed bytes; the tail may be a partial line
  std::size_t scanned = 0;   // inbuf[0, scanned) holds no newline
  std::uint64_t next_seq = 0;  // arrival number of the next line
  std::uint64_t next_write = 0;  // seq whose reply is emitted next
  std::uint64_t inflight = 0;    // lines without a reply yet
  std::map<std::uint64_t, Reply> pending;  // out-of-order completions parked
  // Ordered outgoing replies.  front_off is how many bytes of the front
  // reply a previous short write already sent; out_bytes is the queue's
  // wire size.
  std::deque<Reply> outq;
  std::size_t front_off = 0;
  std::size_t out_bytes = 0;
  bool want_write = false;  // EPOLLOUT currently armed
  bool peer_eof = false;    // the peer hung up (or reading failed)
  // Reading stopped at the output bound with input possibly still unread.
  // The socket is edge-triggered, so no new EPOLLIN may come: every flush
  // that brings out_bytes back under the bound resumes reading.
  bool paused = false;
  bool reading = true;  // false once the drain begins or the limit was broken
  // Once reading stops the connection is ending; it is closed if the peer
  // takes none of our output before stall_deadline_ns (stall_unsent: bytes
  // it had not acknowledged at the last look).  lingering: every reply is
  // flushed, our side is shut down for writing, and whatever the peer still
  // sends is discarded until it hangs up.
  bool lingering = false;
  std::uint64_t stall_deadline_ns = 0;
  int stall_unsent = 0;
};

Server::Loop::Loop(std::size_t completion_capacity)
    : completions(completion_capacity) {}

Server::Loop::~Loop() = default;

Server::Server(Service& service, ServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {}

Server::~Server() {
  request_stop();
  wait();
  service_.set_transport_metrics(nullptr);
  for (auto& loop : loops_) {
    for (const int fd : loop->inbox) ::close(fd);
    for (const int fd : {loop->wake_efd, loop->epoll_fd})
      if (fd >= 0) ::close(fd);
  }
  for (auto& lane : lanes_)
    if (lane->efd >= 0) ::close(lane->efd);
  for (const int fd : {stop_efd_, listen_fd_})
    if (fd >= 0) ::close(fd);
}

bool Server::start() {
  stop_efd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_efd_ < 0) {
    error_ = strformat("eventfd: %s", std::strerror(errno));
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = strformat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = strformat("invalid listen address '%s'", cfg_.host.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = strformat("bind %s:%d: %s", cfg_.host.c_str(), cfg_.port,
                       std::strerror(errno));
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    error_ = strformat("listen: %s", std::strerror(errno));
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);

  const std::size_t shards = static_cast<std::size_t>(service_.shard_count());
  lanes_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto lane = std::make_unique<Lane>(cfg_.ring_capacity);
    lane->efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (lane->efd < 0) {
      error_ = strformat("eventfd: %s", std::strerror(errno));
      return false;
    }
    lanes_.push_back(std::move(lane));
  }
  // Outstanding replies are bounded by what the lanes can hold plus one
  // executing request per shard.  One ring of that size (rounded up to a
  // power of two) is split evenly across the loops, so adding loops adds no
  // completion memory.  A loop never dispatches more requests than its share
  // holds (route_line answers `overloaded` beyond it), so a worker's push
  // always succeeds and never waits on a busy loop.
  std::size_t total = 2;
  while (total < shards * lanes_[0]->ring.capacity() + shards) total <<= 1;
  std::size_t per_loop = 2;
  while (per_loop * 2 <= total / shards) per_loop <<= 1;
  loops_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto loop = std::make_unique<Loop>(per_loop);
    loop->index = static_cast<std::uint32_t>(i);
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_efd < 0) {
      error_ = strformat("eventfd/epoll: %s", std::strerror(errno));
      loops_.push_back(std::move(loop));  // the destructor closes its fds
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 2;  // 2 = wake eventfd
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_efd, &ev);
    loops_.push_back(std::move(loop));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 = listener
  ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = 1;  // 1 = stop eventfd
  ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, stop_efd_, &ev);

  service_.set_transport_metrics(
      [this](std::string& out) { append_transport_metrics(out); });

  obs::log_info("listener started",
                {obs::field("host", cfg_.host), obs::field("port", port_),
                 obs::field("shards", static_cast<int>(shards)),
                 obs::field("loops", static_cast<int>(loops_.size())),
                 obs::field("ring_capacity", lanes_[0]->ring.capacity())});
  for (std::size_t i = 0; i < shards; ++i)
    lanes_[i]->thread = std::thread([this, i] { worker_loop(i); });
  for (auto& loop : loops_)
    loop->thread = std::thread([this, l = loop.get()] { loop_run(*l); });
  return true;
}

void Server::request_stop() {
  if (stop_efd_ >= 0) {
    const std::uint64_t one = 1;
    // Best effort; eventfd write is async-signal-safe, and a full counter
    // means a stop is already pending.
    [[maybe_unused]] const ssize_t r = ::write(stop_efd_, &one, sizeof one);
  }
}

// Loop 0 joins every other thread before it returns.
void Server::wait() {
  if (!loops_.empty() && loops_[0]->thread.joinable()) loops_[0]->thread.join();
}

void Server::wake(int efd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(efd, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Shard workers

void Server::worker_loop(std::size_t shard) {
  Lane& lane = *lanes_[shard];
  Dispatch d;
  for (;;) {
    if (lane.ring.try_pop(d)) {
      const std::uint64_t t = now_ns();
      Loop& loop = *loops_[d.loop];
      Completion comp;
      comp.conn_id = d.conn_id;
      comp.seq = d.seq;
      comp.reply =
          service_.serve_parsed(std::move(d.parsed),
                                t > d.enqueued_ns ? t - d.enqueued_ns : 0);
      d = Dispatch{};  // release request strings before parking
      // Cannot fail: a loop never has more requests outstanding than its
      // completion ring holds (route_line answers `overloaded` first).
      [[maybe_unused]] const bool pushed = loop.completions.try_push(comp);
      ILP_ASSERT(pushed, "completion ring overflow");
      // Gated wakeup (store-buffer pattern): the loop sets `parked` and
      // re-checks its ring before sleeping, we publish and re-check the
      // flag.  Both sides fence, so at least one of them sees the other.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (loop.parked.load(std::memory_order_relaxed)) wake(loop.wake_efd);
      continue;
    }
    if (workers_stop_.load(std::memory_order_acquire)) break;
    // Park until a loop pushes; the timeout bounds any lost wakeup.
    lane.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (lane.ring.empty_approx() &&
        !workers_stop_.load(std::memory_order_acquire)) {
      pollfd p{lane.efd, POLLIN, 0};
      ::poll(&p, 1, cfg_.poll_interval_ms);
      std::uint64_t drain = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(lane.efd, &drain, sizeof drain);
    }
    lane.parked.store(false, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Event loops

void Server::loop_run(Loop& L) {
  epoll_event events[64];
  for (;;) {
    drain_completions(L);
    expire_stalled(L);
    reap(L);
    // Read the stop flag before the inbox: every hand-off loop 0 made before
    // it set the flag is then visible to adopt_inbox.
    const bool stop = stopping_.load(std::memory_order_acquire);
    adopt_inbox(L);
    if (stop) {
      if (!L.draining) begin_loop_drain(L);
      if (L.conns.empty()) {
        if (L.index != 0) {
          // Nothing left to answer here; loop 0 finishes the drain.
          L.retired.store(true, std::memory_order_release);
          wake(loops_[0]->wake_efd);
          return;
        }
        bool others_retired = true;
        for (std::size_t i = 1; i < loops_.size(); ++i)
          others_retired = others_retired &&
                           loops_[i]->retired.load(std::memory_order_acquire);
        if (others_retired) {
          finish_drain();
          return;
        }
      }
    }

    L.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int n = 0;
    if (L.completions.empty_approx())
      n = ::epoll_wait(L.epoll_fd, events, 64, cfg_.poll_interval_ms);
    L.parked.store(false, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::log_warn("epoll_wait failed",
                    {obs::field("errno", std::strerror(errno))});
      continue;
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        accept_ready(L);
        continue;
      }
      if (tag == 1) {  // request_stop()
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(stop_efd_, &v, sizeof v);
        begin_drain();
        continue;
      }
      if (tag == 2) {  // completions, hand-offs or the drain: all handled above
        std::uint64_t v = 0;
        [[maybe_unused]] const ssize_t r = ::read(L.wake_efd, &v, sizeof v);
        continue;
      }
      const auto it = L.conns.find(tag);
      if (it == L.conns.end() || it->second->fd < 0) continue;  // closed
      Conn& c = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 && c.inflight == 0 &&
          c.outq.empty()) {
        close_conn(L, c);
        continue;
      }
      conn_ready(L, c);
    }
    // Deferred erase: events later in a batch may still name a closed conn.
    reap(L);
  }
}

// Loop 0, on request_stop(): no new connections, no new work admitted.
void Server::begin_drain() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  obs::log_info("listener closing; drain begins");
  ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
  service_.begin_drain();
  for (std::size_t i = 1; i < loops_.size(); ++i) wake(loops_[i]->wake_efd);
}

// Every complete line this loop already received is dispatched (the service
// answers `shutting_down` for work it no longer admits); reading stops, so
// partial lines never complete.  Idle connections start closing right here.
void Server::begin_loop_drain(Loop& L) {
  L.draining = true;
  for (auto& [id, conn] : L.conns) {
    Conn& c = *conn;
    if (c.fd < 0) continue;
    stop_reading(L, c);
    dispatch_lines(L, c);
    finish_io(L, c);
  }
  reap(L);
}

// Loop 0, once it and every other loop have retired: stop the shard workers
// (they finish their ring stragglers — replies for force-closed connections
// — first), join every thread, then wait out the service.
void Server::finish_drain() {
  workers_stop_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) wake(lane->efd);
  for (auto& lane : lanes_)
    if (lane->thread.joinable()) lane->thread.join();
  for (std::size_t i = 1; i < loops_.size(); ++i)
    if (loops_[i]->thread.joinable()) loops_[i]->thread.join();
  service_.wait_drained();
  obs::log_info("drain complete");
}

void Server::accept_ready(Loop& L0) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      obs::log_warn("accept failed",
                    {obs::field("errno", std::strerror(errno))});
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Loop& target = *loops_[next_loop_++ % loops_.size()];
    if (&target == &L0) {
      adopt(L0, fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(target.inbox_mu);
      target.inbox.push_back(fd);
    }
    wake(target.wake_efd);
  }
}

void Server::adopt_inbox(Loop& L) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(L.inbox_mu);
    if (L.inbox.empty()) return;
    fds.swap(L.inbox);
  }
  for (const int fd : fds) adopt(L, fd);
}

void Server::adopt(Loop& L, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = L.next_conn_id++;
  // A socket that is already readable reports EPOLLIN on registration, so
  // bytes sent before the hand-off are not missed.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(L.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  obs::log_debug("connection accepted",
                 {obs::field("fd", fd),
                  obs::field("loop", static_cast<int>(L.index))});
  L.connections.fetch_add(1, std::memory_order_relaxed);
  L.conns.emplace(conn->id, std::move(conn));
}

// Handles every readiness event of a connection: output first, since a peer
// that reads its replies again is what lets a paused connection read more,
// then input, then the flush and close checks.
void Server::conn_ready(Loop& L, Conn& c) {
  if (c.lingering) {
    discard_input(L, c);
    return;
  }
  if (!flush_conn(L, c)) {
    close_conn(L, c);
    return;
  }
  read_input(L, c);
  finish_io(L, c);
}

// Reads and routes input until the socket is drained or the connection's
// unsent replies reach the output bound; the latter leaves it paused.
void Server::read_input(Loop& L, Conn& c) {
  c.paused = false;
  char chunk[16384];
  for (;;) {
    if (!c.reading) return;
    if (c.out_bytes >= cfg_.max_queued_output) {
      c.paused = true;
      return;
    }
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n > 0) {
      c.inbuf.append(chunk, static_cast<std::size_t>(n));
      // Consume per chunk, so the buffer never holds more than one
      // over-long line's worth of bytes (dispatch_lines stops the reading
      // when the limit is broken).
      dispatch_lines(L, c);
      if (static_cast<std::size_t>(n) < sizeof chunk) break;  // drained
      continue;
    }
    if (n == 0) {
      c.peer_eof = true;  // serve what arrived, close once flushed
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.peer_eof = true;
    break;
  }
}

// Routes every complete line in the buffer, then compacts it once.  The scan
// resumes where the previous one stopped, so a long line arriving in many
// reads, or a burst of pipelined lines, costs time linear in its bytes.
void Server::dispatch_lines(Loop& L, Conn& c) {
  std::size_t consumed = 0;
  bool too_long = false;
  for (;;) {
    const char* base = c.inbuf.data();
    const void* hit =
        std::memchr(base + c.scanned, '\n', c.inbuf.size() - c.scanned);
    if (hit == nullptr) {
      c.scanned = c.inbuf.size();
      break;
    }
    const auto nl =
        static_cast<std::size_t>(static_cast<const char*>(hit) - base);
    std::string_view line(base + consumed, nl - consumed);
    consumed = c.scanned = nl + 1;
    if (line.size() > kMaxLineBytes) {
      too_long = true;
      break;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) route_line(L, c, line);
  }
  if (too_long || (c.reading && c.inbuf.size() - consumed > kMaxLineBytes)) {
    reject_long_line(L, c);
    return;
  }
  c.inbuf.erase(0, consumed);
  c.scanned -= consumed;
}

void Server::route_line(Loop& L, Conn& c, std::string_view line) {
  const std::uint64_t seq = c.next_seq++;
  ++c.inflight;
  Service::ParsedRequest parsed = service_.parse_and_route(line);
  if (std::optional<Reply> hot = service_.try_serve_hot(parsed)) {
    L.inline_replies.fetch_add(1, std::memory_order_relaxed);
    on_reply(c, seq, std::move(*hot));
    return;
  }

  Lane& lane = *lanes_[parsed.shard];
  if (L.outstanding >= L.completions.capacity()) {
    // Every slot of this loop's completion ring is spoken for: the same
    // explicit backpressure as a full dispatch ring.
    lane.drops.fetch_add(1, std::memory_order_relaxed);
    Reply r;
    r.flat = serialize_error(parsed.req ? parsed.req->id_json : "null",
                             ErrorKind::Overloaded,
                             "completion ring full; retry later");
    on_reply(c, seq, std::move(r));
    return;
  }
  Dispatch d;
  d.loop = L.index;
  d.conn_id = c.id;
  d.seq = seq;
  d.parsed = std::move(parsed);
  d.enqueued_ns = now_ns();
  if (!lane.ring.try_push(d)) {
    // try_push leaves `d` intact on failure.  The ring is this path's
    // admission queue, so a full ring is the same explicit backpressure as
    // a full service queue.
    lane.drops.fetch_add(1, std::memory_order_relaxed);
    Reply r;
    r.flat = serialize_error(d.parsed.req ? d.parsed.req->id_json : "null",
                             ErrorKind::Overloaded,
                             "dispatch ring full; retry later");
    on_reply(c, seq, std::move(r));
    return;
  }
  ++L.outstanding;
  lane.dispatched.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (lane.parked.load(std::memory_order_relaxed)) wake(lane.efd);
}

// The line-length limit: the offending line is answered `bad_request` in
// order (through the service, so the request counters see it), nothing more
// is read, and the connection closes once its replies are flushed.
void Server::reject_long_line(Loop& L, Conn& c) {
  Service::ParsedRequest p;
  p.parse_error = strformat("request line exceeds %zu bytes", kMaxLineBytes);
  const std::uint64_t seq = c.next_seq++;
  ++c.inflight;
  on_reply(c, seq, service_.serve_parsed(std::move(p)));
  stop_reading(L, c);
  std::string().swap(c.inbuf);
  c.scanned = 0;
}

void Server::drain_completions(Loop& L) {
  Completion comp;
  while (L.completions.try_pop(comp)) {
    --L.outstanding;
    const auto it = L.conns.find(comp.conn_id);
    if (it == L.conns.end() || it->second->fd < 0) continue;  // conn died
    Conn& c = *it->second;
    on_reply(c, comp.seq, std::move(comp.reply));
    finish_io(L, c);
  }
}

// Sequences one finished reply into the connection's ordered output; the
// caller flushes.
void Server::on_reply(Conn& c, std::uint64_t seq, Reply r) {
  --c.inflight;
  if (r.body == nullptr && (r.flat.empty() || r.flat.back() != '\n'))
    r.flat += '\n';
  if (seq == c.next_write && c.pending.empty()) {  // in order: no parking
    c.out_bytes += reply_wire_size(r);
    c.outq.push_back(std::move(r));
    ++c.next_write;
    return;
  }
  c.pending.emplace(seq, std::move(r));
  while (!c.pending.empty() && c.pending.begin()->first == c.next_write) {
    c.out_bytes += reply_wire_size(c.pending.begin()->second);
    c.outq.push_back(std::move(c.pending.begin()->second));
    c.pending.erase(c.pending.begin());
    ++c.next_write;
  }
}

void Server::finish_io(Loop& L, Conn& c) {
  for (;;) {
    if (!flush_conn(L, c)) {
      close_conn(L, c);
      return;
    }
    // A paused connection still at the bound has EPOLLOUT armed (the flush
    // stopped short), and that event resumes it; below the bound it resumes
    // here, since its peer may have nothing more to send.
    if (!c.paused || c.out_bytes >= cfg_.max_queued_output) break;
    read_input(L, c);
  }
  maybe_finish_conn(L, c);
}

// Gathers as many queued replies as fit into one sendmsg, straight from the
// shared response segments.  Returns false if the connection broke.
bool Server::flush_conn(Loop& L, Conn& c) {
  if (c.fd < 0) return false;
  while (!c.outq.empty()) {
    iovec iov[64];
    std::size_t iovs = 0;
    std::size_t skip = c.front_off;
    for (const Reply& r : c.outq) {
      std::array<std::string_view, kMaxSegments> segs;
      const std::size_t nseg = reply_segments(r, segs);
      for (std::size_t s = 0; s < nseg && iovs < 64; ++s) {
        std::string_view seg = segs[s];
        if (skip >= seg.size()) {
          skip -= seg.size();
          continue;
        }
        seg.remove_prefix(skip);
        skip = 0;
        iov[iovs].iov_base = const_cast<char*>(seg.data());
        iov[iovs].iov_len = seg.size();
        ++iovs;
      }
      if (iovs >= 64) break;
    }
    if (iovs == 0) return true;
    // sendmsg rather than writev only for MSG_NOSIGNAL: a peer that reset
    // the connection must cost an error return, not the process a SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovs;
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
          ev.data.u64 = c.id;
          ::epoll_ctl(L.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
          c.want_write = true;
        }
        return true;
      }
      obs::Logger::global().warn_rate_limited(
          "conn_write", "dropping connection: response write failed",
          {obs::field("fd", c.fd), obs::field("errno", std::strerror(errno))});
      return false;
    }
    // Advance the cursor across fully-written replies.
    std::size_t advanced = static_cast<std::size_t>(w) + c.front_off;
    while (!c.outq.empty()) {
      const std::size_t sz = reply_wire_size(c.outq.front());
      if (advanced < sz) break;
      advanced -= sz;
      c.out_bytes -= sz;
      c.outq.pop_front();
    }
    c.front_off = advanced;
    if (!c.reading && w > 0) c.stall_deadline_ns = now_ns() + kStallNs;
  }
  if (c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = c.id;
    ::epoll_ctl(L.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = false;
  }
  return true;
}

void Server::close_conn(Loop& L, Conn& c) {
  if (c.fd < 0) return;
  ::epoll_ctl(L.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  L.connections.fetch_sub(1, std::memory_order_relaxed);
  L.dead_conns.push_back(c.id);
}

// Ends the connection once there is nothing left to do on it: no reply in
// flight, everything flushed, and either the peer hung up or this side
// stopped reading (the drain, or a broken line-length limit).
void Server::maybe_finish_conn(Loop& L, Conn& c) {
  if (c.fd < 0 || c.lingering) return;
  const bool quiesced = c.inflight == 0 && c.outq.empty() && c.pending.empty();
  if (!quiesced || (c.reading && !c.peer_eof)) return;
  if (c.peer_eof) {
    close_conn(L, c);
    return;
  }
  // Closing a socket with unread input — or one the peer still writes to —
  // makes the kernel answer with a reset, which destroys replies still
  // queued for transmission.  So shut down our side (the peer reads every
  // reply, then EOF) and keep draining its input until it hangs up.
  ::shutdown(c.fd, SHUT_WR);
  c.lingering = true;
  c.stall_deadline_ns = now_ns() + kStallNs;
  discard_input(L, c);
}

// Reading stops for good (the drain, a broken line limit): from here on the
// connection only finishes, and expire_stalled watches that it does.
void Server::stop_reading(Loop& L, Conn& c) {
  if (!c.reading) return;
  c.reading = false;
  c.stall_deadline_ns = now_ns() + kStallNs;
  L.ending.push_back(c.id);
}

void Server::discard_input(Loop& L, Conn& c) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_conn(L, c);  // the peer hung up (or the socket failed)
    return;
  }
}

// Closes ending connections whose peer has taken none of our output for
// kStallNs.  A peer still reading its backlog keeps the connection (closing
// would reset it and drop the replies still queued), and so does a reply
// still being computed.
void Server::expire_stalled(Loop& L) {
  if (L.ending.empty()) return;
  const std::uint64_t now = now_ns();
  std::erase_if(L.ending, [&](std::uint64_t id) {
    const auto it = L.conns.find(id);
    if (it == L.conns.end() || it->second->fd < 0) return true;
    Conn& c = *it->second;
    const bool computing = c.outq.empty() && c.inflight > 0;
    int unsent = 0;
    if (computing || (::ioctl(c.fd, SIOCOUTQ, &unsent) == 0 && unsent > 0 &&
                      unsent != c.stall_unsent)) {
      c.stall_unsent = unsent;
      c.stall_deadline_ns = now + kStallNs;
      return false;
    }
    if (now < c.stall_deadline_ns) return false;
    close_conn(L, c);
    return true;
  });
}

void Server::reap(Loop& L) {
  for (const std::uint64_t id : L.dead_conns) L.conns.erase(id);
  L.dead_conns.clear();
}

void Server::append_transport_metrics(std::string& out) const {
  obs::prom::begin_gauge_family(out, "server.shard_queue_depth",
                                "Lines waiting in each shard's dispatch ring");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_gauge_sample(
        out, "server.shard_queue_depth", "shard", std::to_string(i),
        static_cast<double>(lanes_[i]->ring.size_approx()));
  obs::prom::begin_counter_family(
      out, "server.shard_ring_drops",
      "Lines answered `overloaded` because a dispatch or completion ring was full");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_counter_sample(
        out, "server.shard_ring_drops", "shard", std::to_string(i),
        lanes_[i]->drops.load(std::memory_order_relaxed));
  obs::prom::begin_counter_family(out, "server.shard_dispatched",
                                  "Lines routed to each shard's ring");
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    obs::prom::append_counter_sample(
        out, "server.shard_dispatched", "shard", std::to_string(i),
        lanes_[i]->dispatched.load(std::memory_order_relaxed));
  obs::prom::begin_gauge_family(out, "server.loop_connections",
                                "Open connections owned by each event loop");
  for (std::size_t i = 0; i < loops_.size(); ++i)
    obs::prom::append_gauge_sample(
        out, "server.loop_connections", "loop", std::to_string(i),
        static_cast<double>(
            loops_[i]->connections.load(std::memory_order_relaxed)));
  obs::prom::begin_counter_family(
      out, "server.loop_inline_replies",
      "Hot-tier hits each event loop answered without a shard hop");
  for (std::size_t i = 0; i < loops_.size(); ++i)
    obs::prom::append_counter_sample(
        out, "server.loop_inline_replies", "loop", std::to_string(i),
        loops_[i]->inline_replies.load(std::memory_order_relaxed));
}

}  // namespace ilp::server
