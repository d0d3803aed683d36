// The serve workload serve_warm: a real ilpd process (2 shard workers plus
// its IO thread) driven over TCP by one closed-loop generator thread.  Every
// request names a program of a seeded fuzz corpus that was sent once during
// set-up, so every reply is a cache hit: the load is transport, JSON, routing
// and the hot-reply tier.
//
// The generator keeps a fixed number of requests in flight on each of four
// connections (closed loop), so the daemon always has work queued and the
// run measures its capacity.  A request is due when its connection slot
// frees; it is timed from then, so the generator's own delay in sending it
// counts and is reported.  Every reply must be ok and carry the cycles an
// in-process compile+simulate of the same program gives; those references
// are computed after the measured phases, outside set-up.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <deque>
#include <future>

#include "bench.hpp"
#include "common/fixtures.hpp"
#include "engine/pool.hpp"
#include "harness/experiment.hpp"
#include "server/json.hpp"
#include "server/netclient.hpp"
#include "server/service.hpp"
#include "support/strings.hpp"

namespace perfbench {
namespace {

// Workload shape.  Every connection keeps kDepth requests in flight, so
// the daemon always has work queued and the run measures its capacity.  The
// corpus fits the hot-reply tier of two shards (4096 entries each).
constexpr std::size_t kCorpus = 2048;  // distinct warm programs
constexpr int kConnections = 4;
// 16 requests in flight: below ilpd's admission bound (workers + queue
// limit = 66), so none is refused as overloaded.
constexpr int kDepth = 4;  // requests in flight per connection
constexpr int kWorkers = 2;
constexpr std::size_t kReplayLimit = 4000;  // in-process serve() replay (traced run)
// The first quarter second of each phase runs on fresh connections and is
// checked but not timed.
constexpr double kLeadInS = 0.25;
// Throughput, p50 and the tail are taken per window of kWindow consecutive
// timed replies and the median over the windows is reported, so a burst of
// host preemption moves the windows it falls in, not the result.  The tail
// of a window is its p95, the highest percentile with ten samples beyond it.
// A hit costs ilpd about 20 us, so a window spans a few milliseconds; on a
// 4-vCPU VM where the hypervisor steals 10% of the time, every 2000-reply
// window held a stall of a millisecond or more and a p99 over it measured
// the host, not ilpd.
constexpr std::size_t kWindow = 200;
constexpr double kTailPercentile = 95.0;

// --- ilpd process ------------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& path, std::string* err) {
    int out[2];
    if (pipe(out) != 0) {
      *err = "pipe failed";
      return;
    }
    const std::string workers = std::to_string(kWorkers);
    pid_ = fork();
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, even if it is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], 1);
      close(out[0]);
      close(out[1]);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, 2);
      execl(path.c_str(), path.c_str(), "--port", "0", "--workers", workers.c_str(),
            "--log-level", "off", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    if (pid_ < 0) {
      close(out[0]);
      *err = "cannot start " + path;
      return;
    }
    // "ilpd listening on 127.0.0.1:<port> (...)"
    std::string line;
    pollfd p{out[0], POLLIN, 0};
    char c = 0;
    while (line.find('\n') == std::string::npos && poll(&p, 1, 20'000) > 0 &&
           read(out[0], &c, 1) == 1)
      line += c;
    close(out[0]);
    const std::size_t colon = line.rfind(':', line.find(" ("));
    if (line.rfind("ilpd listening on ", 0) != 0 || colon == std::string::npos) {
      *err = "ilpd did not report its port: " + line;
      return;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// --- Request stream ------------------------------------------------------------

// One compile request line of the workload: Lev4 for the issue-8 machine.
std::string compile_line(std::size_t id, const std::string& escaped_source) {
  return ilp::strformat(R"({"id":%zu,"kind":"compile","source":"%s","level":"lev4","issue":8})",
                        id, escaped_source.c_str());
}

// The request stream of a run.  Corpus programs come from the fuzz generator
// at seeds derived from the run's seed.  Requests are drawn in order as the
// generator asks for them, so a faster daemon gets a longer stream, never a
// different one.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed * 7919 + 17) {
    const std::uint64_t base = (seed % 100'000) * 1'000'000 + 1;
    for (std::size_t k = 0; k < kCorpus; ++k) {
      std::string src = ilp::testing::random_program(base + k);
      escaped.push_back(ilp::json_escape(src));
      sources.push_back(std::move(src));
    }
  }

  // The line of request `req`, drawing the requests up to it.
  std::string line(std::size_t req) {
    while (prog.size() <= req)
      prog.push_back(static_cast<std::uint32_t>(rng_.range(0, static_cast<int>(kCorpus) - 1)));
    return compile_line(req, escaped[prog[req]]);
  }

  std::vector<std::string> escaped;  // program id -> JSON-escaped source
  std::vector<std::string> sources;
  std::vector<std::uint32_t> prog;   // request index -> program id

 private:
  ilp::testing::Rng rng_;
};

// --- Reply scanning -------------------------------------------------------------

// The fields of a compile reply the benchmark checks, read without a full
// JSON parse so the generator thread stays cheap.
struct ReplyFields {
  bool ok = false;
  bool cached = false;
  std::int64_t id = -1;
  std::uint64_t cycles = 0;
};

std::uint64_t scan_u64(const std::string& s, const char* key, bool* found = nullptr) {
  const std::size_t at = s.find(key);
  if (found != nullptr) *found = at != std::string::npos;
  return at == std::string::npos
             ? 0
             : std::strtoull(s.c_str() + at + std::strlen(key), nullptr, 10);
}

ReplyFields scan_reply(const std::string& line) {
  ReplyFields f;
  bool has_id = false;
  const std::uint64_t id = scan_u64(line, "{\"id\": ", &has_id);
  f.id = has_id ? static_cast<std::int64_t>(id) : -1;
  f.ok = line.find("\"ok\": true") != std::string::npos;
  f.cached = line.find("\"cached\": true") != std::string::npos;
  f.cycles = scan_u64(line, "\"cycles\": ");
  return f;
}

// --- Daemon observation ---------------------------------------------------------

std::optional<std::string> ask(int port, const char* line) {
  ilp::server::LineClient c;
  if (!c.connect("127.0.0.1", port) || !c.send_line(line)) return std::nullopt;
  return c.recv_line(10'000);
}

struct StatsSnap {
  bool ok = false;
  double received = 0, coalesced = 0, overloaded = 0;
  double lat_count = 0, lat_sum_us = 0, qw_count = 0, qw_sum_us = 0;
  double cpu_s = 0;
  RegistrySnap registry;
};

StatsSnap observe(int port, int pid) {
  StatsSnap s;
  s.cpu_s = proc_cpu_s(pid);
  const auto stats = ask(port, R"({"kind":"stats"})");
  const auto metrics = ask(port, R"({"kind":"metrics"})");
  if (!stats || !metrics) return s;
  std::string err;
  const auto v = ilp::server::JsonValue::parse(*stats, &err);
  const auto m = ilp::server::JsonValue::parse(*metrics, &err);
  const ilp::server::JsonValue* st = v ? v->find("stats") : nullptr;
  if (st == nullptr || !m) return s;
  const auto num = [](const ilp::server::JsonValue* o, const char* k) {
    const ilp::server::JsonValue* x = o != nullptr ? o->find(k) : nullptr;
    return x != nullptr ? x->as_double() : 0.0;
  };
  const ilp::server::JsonValue* req = st->find("requests");
  s.received = num(req, "received");
  s.coalesced = num(req, "coalesced");
  s.overloaded = num(req, "overloaded");
  const ilp::server::JsonValue* lat = st->find("latency_us");
  s.lat_count = num(lat, "count");
  s.lat_sum_us = num(lat, "mean") * s.lat_count;
  const ilp::server::JsonValue* qw = st->find("queue_wait_us");
  s.qw_count = num(qw, "count");
  s.qw_sum_us = num(qw, "mean") * s.qw_count;
  const ilp::server::JsonValue* text = m->find("exposition");
  if (text == nullptr || !text->is_string()) return s;
  s.registry = parse_prometheus(text->as_string());
  s.ok = true;
  return s;
}

// --- Set-up ----------------------------------------------------------------------

// Sends every corpus program once (a window of requests in flight on one
// connection) so the daemon's caches hold the whole corpus.
bool warm_corpus(int port, const Stream& s, std::string* err) {
  ilp::server::LineClient c;
  if (!c.connect("127.0.0.1", port)) {
    *err = "cannot connect for warm-up";
    return false;
  }
  constexpr std::size_t kWindow = 16;
  std::size_t sent = 0, received = 0;
  while (received < kCorpus) {
    while (sent < kCorpus && sent - received < kWindow) {
      if (!c.send_line(compile_line(sent, s.escaped[sent]))) {
        *err = "warm-up send failed";
        return false;
      }
      ++sent;
    }
    const auto reply = c.recv_line(60'000);
    if (!reply || !scan_reply(*reply).ok) {
      *err = "warm-up request failed: " + reply.value_or("(no reply)");
      return false;
    }
    ++received;
  }
  return true;
}

// --- Closed-loop generator ---------------------------------------------------------

struct Phase {
  std::size_t first = 0;  // first request of the stream this phase sends
  double seconds = 0.0;
  std::size_t count = 0;  // requests sent
  double wall_s = 0.0;
  double generator_cpu_s = 0.0;  // CPU time of this process during the phase
  // Per request sent.  A request is due when its connection slot freed (the
  // previous reply on the slot arrived, or the phase started); -1 marks the
  // lead-in and unanswered requests.
  std::vector<double> lat_us;        // due -> reply
  std::vector<double> late_us;       // due -> sent
  std::vector<std::uint64_t> done;   // reply time
  std::vector<ReplyFields> replies;  // id -1: unanswered
  std::uint64_t answered = 0;
  std::string error;
};

int connect_fd(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool write_all(int fd, const std::string& s) {
  const char* p = s.data();
  std::size_t n = s.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Sends the stream from ph.first for ph.seconds, keeping kDepth requests in
// flight on each connection, then waits for the outstanding replies.
void run_closed_loop(int port, Stream& s, Phase& ph, Tracer* tr) {
  struct Conn {
    int fd = -1;
    std::string in;
    std::deque<std::size_t> pending;  // request indices in send order
  };
  Conn conns[kConnections];
  for (Conn& c : conns) {
    c.fd = connect_fd(port);
    if (c.fd < 0) {
      ph.error = "connect failed";
      for (Conn& d : conns)
        if (d.fd >= 0) ::close(d.fd);
      return;
    }
  }
  std::vector<std::uint64_t> due, sent_at;
  const double cpu0 = self_cpu_s();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t timed_from = t0 + static_cast<std::uint64_t>(kLeadInS * 1e9);
  const std::uint64_t stop = t0 + static_cast<std::uint64_t>(ph.seconds * 1e9);
  const std::uint64_t give_up = stop + 20'000'000'000ull;

  const auto send = [&](Conn& c, std::uint64_t due_ns) {
    if (now_ns() >= stop) return true;
    const std::size_t i = ph.count;
    const std::string line = s.line(ph.first + i) + "\n";
    due.push_back(due_ns);
    sent_at.push_back(now_ns());
    ph.replies.emplace_back();
    ph.lat_us.push_back(-1.0);
    ph.late_us.push_back(-1.0);
    ph.done.push_back(0);
    if (!write_all(c.fd, line)) return false;
    c.pending.push_back(i);
    ++ph.count;
    return true;
  };
  for (int d = 0; d < kDepth; ++d)
    for (Conn& c : conns)
      if (!send(c, t0)) ph.error = "send failed";

  char buf[1 << 16];
  while (ph.error.empty() && ph.answered < ph.count) {
    if (now_ns() > give_up) {
      ph.error = "replies missing after the phase ended";
      break;
    }
    pollfd pfd[kConnections];
    for (int k = 0; k < kConnections; ++k) pfd[k] = pollfd{conns[k].fd, POLLIN, 0};
    if (poll(pfd, kConnections, 50) <= 0) continue;
    for (int k = 0; k < kConnections && ph.error.empty(); ++k) {
      if ((pfd[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[k];
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n <= 0) {
        ph.error = "connection closed by ilpd";
        break;
      }
      const std::uint64_t recv = now_ns();
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0, nl;
      while ((nl = c.in.find('\n', pos)) != std::string::npos) {
        if (c.pending.empty()) {
          ph.error = "unsolicited reply";
          break;
        }
        const std::size_t i = c.pending.front();
        c.pending.pop_front();
        ph.replies[i] = scan_reply(c.in.substr(pos, nl - pos));
        ph.done[i] = recv;
        if (due[i] >= timed_from) {
          ph.lat_us[i] = static_cast<double>(recv - due[i]) / 1e3;
          ph.late_us[i] = static_cast<double>(sent_at[i] - due[i]) / 1e3;
        }
        ++ph.answered;
        if (tr != nullptr) {
          const std::uint64_t op = ph.first + i;
          const std::int32_t root = tr->add("request", op, -1, due[i], recv);
          tr->add("gen.wait", op, root, due[i], sent_at[i]);
          tr->add("wire", op, root, sent_at[i], recv);
        }
        pos = nl + 1;
        if (!send(c, recv)) ph.error = "send failed";
      }
      c.in.erase(0, pos);
    }
  }
  ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  ph.generator_cpu_s = self_cpu_s() - cpu0;
  for (Conn& c : conns) ::close(c.fd);
}

// --- Reference cycles ------------------------------------------------------------

// In-process compile+simulate of every corpus program (the service's own
// cell path: try_compile_workload at Lev4 for issue 8, unroll 8).
std::vector<std::int64_t> reference_cycles(const Stream& s) {
  std::vector<std::int64_t> out(s.sources.size(), -1);
  ilp::engine::ThreadPool pool(3);
  std::vector<std::future<std::int64_t>> fs(s.sources.size());
  for (std::size_t p = 0; p < s.sources.size(); ++p) {
    fs[p] = pool.submit([&s, p]() -> std::int64_t {
      ilp::Workload w;
      w.name = "adhoc";
      w.source = s.sources[p];
      const ilp::MachineModel m = ilp::MachineModel::issue(8);
      ilp::CompileOptions opts;
      opts.unroll.max_factor = 8;
      auto c = ilp::try_compile_workload(w, ilp::OptLevel::Lev4, m, opts);
      if (!c) return -1;
      auto cyc = ilp::try_simulate_cycles(c->fn, m);
      return cyc ? static_cast<std::int64_t>(*cyc) : -1;
    });
  }
  for (std::size_t p = 0; p < fs.size(); ++p) out[p] = fs[p].get();
  return out;
}

// Checks every reply of a phase; returns how many were right.
std::uint64_t check_phase(const Stream& s, const Phase& ph,
                          const std::vector<std::int64_t>& ref, RunResult& r) {
  std::uint64_t ok = 0;
  if (!ph.error.empty()) r.fail("generator: " + ph.error);
  for (std::size_t i = 0; i < ph.count; ++i) {
    const ReplyFields& f = ph.replies[i];
    const std::size_t req = ph.first + i;
    const std::int64_t want = ref[s.prog[req]];
    if (f.id != static_cast<std::int64_t>(req) || !f.ok || want < 0 ||
        f.cycles != static_cast<std::uint64_t>(want)) {
      r.fail(ilp::strformat("request %zu: id %lld ok %d cycles %llu, expected %lld", req,
                            static_cast<long long>(f.id), f.ok ? 1 : 0,
                            static_cast<unsigned long long>(f.cycles),
                            static_cast<long long>(want)));
      continue;
    }
    ++ok;
  }
  return ok;
}

// The timed samples of a per-request series (lead-in and unanswered dropped).
std::vector<double> timed(const std::vector<double>& per_request) {
  std::vector<double> out;
  for (const double v : per_request)
    if (v >= 0) out.push_back(v);
  return out;
}

// Throughput, p50 and tail of a phase: the medians over windows of
// consecutive timed replies (in reply order).  Fails the run when not one
// window fits, since the tail would then be another percentile.
void window_end_to_end(const Phase& ph, EndToEnd& e, RunResult& r) {
  const std::size_t n = kWindow;
  std::vector<std::pair<std::uint64_t, double>> by_done;  // reply time, latency
  for (std::size_t i = 0; i < ph.count; ++i)
    if (ph.lat_us[i] >= 0) by_done.emplace_back(ph.done[i], ph.lat_us[i]);
  std::sort(by_done.begin(), by_done.end());
  std::vector<double> rate, p50;
  for (std::size_t w = 0; (w + 1) * n <= by_done.size(); ++w) {
    const auto first = by_done.begin() + static_cast<std::ptrdiff_t>(w * n);
    const auto last = first + static_cast<std::ptrdiff_t>(n - 1);
    std::vector<double> lat;
    for (auto it = first; it <= last; ++it) lat.push_back(it->second);
    rate.push_back(static_cast<double>(n - 1) * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(1, last->first - first->first)));
    p50.push_back(median(lat));
    e.tail_windows.push_back(std::move(lat));
  }
  if (rate.empty())
    r.fail(ilp::strformat("only %zu timed replies: fewer than one %zu-reply window",
                          by_done.size(), n));
  e.throughput_ops_s = median(rate);
  e.latency_p50_us = median(p50);
  r.ctx("windows", static_cast<double>(rate.size()));
}

void phase_context(RunResult& r, const char* name, const Phase& ph, std::uint64_t ok) {
  const std::vector<double> late = timed(ph.late_us);
  r.ctx_json(std::string("phase_") + name,
             ilp::strformat("{\"sent\": %zu, \"succeeded\": %" PRIu64 ", \"failed\": %" PRIu64
                            ", \"in_flight\": %d, \"wall_s\": %.6f, \"generator_cpu_s\": %.6f"
                            ", \"late_us_p50\": %.3f"
                            ", \"late_us_p99\": %.3f, \"late_us_max\": %.3f}",
                            ph.count, ok, static_cast<std::uint64_t>(ph.count) - ok,
                            kConnections * kDepth, ph.wall_s, ph.generator_cpu_s, median(late),
                            quantile(late, 0.99), quantile(late, 1.0)));
}

}  // namespace

RunResult run_serve_warm(const Options& opt) {
  RunResult r;
  Stream s(opt.seed);
  r.ctx("corpus_programs", static_cast<double>(kCorpus));
  r.ctx("connections", kConnections);
  r.ctx("in_flight_per_connection", kDepth);
  r.ctx("ilpd_workers", kWorkers);

  // Set-up, repeated: start a daemon and warm the corpus into it.  The last
  // daemon serves the measured phases.
  std::unique_ptr<Daemon> d;
  std::vector<double> setups;
  for (int k = 0; k < kServeSetups; ++k) {
    d.reset();
    const std::uint64_t t0 = now_ns();
    std::string err;
    d = std::make_unique<Daemon>(opt.ilpd, &err);
    if (err.empty()) warm_corpus(d->port(), s, &err);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!err.empty()) {
      r.fail("setup: " + err);
      r.attempted = 1;
      return r;
    }
  }
  r.ctx("setup_runs", static_cast<double>(setups.size()));
  r.ctx_json("phase_warmup",
             ilp::strformat("{\"sent\": %zu, \"succeeded\": %zu, \"failed\": 0, \"runs\": %zu}",
                            kCorpus, kCorpus, setups.size()));

  // Untraced phase: the run's seconds, or half of them under --trace 1; the
  // traced phase continues the stream for the other half.
  Phase ph;
  ph.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const StatsSnap s0 = observe(d->port(), d->pid());
  run_closed_loop(d->port(), s, ph, nullptr);
  const StatsSnap s1 = observe(d->port(), d->pid());

  Phase tph;
  Tracer tr;
  StatsSnap s2;
  if (opt.trace) {
    tph.first = ph.count;
    tph.seconds = opt.seconds / 2;
    run_closed_loop(d->port(), s, tph, &tr);
    s2 = observe(d->port(), d->pid());
  }
  const double rss = peak_rss_mb(d->pid());
  d.reset();
  if (!s0.ok || !s1.ok || (opt.trace && !s2.ok)) r.fail("ilpd stats/metrics unavailable");

  const std::vector<std::int64_t> ref = reference_cycles(s);
  phase_context(r, "measure", ph, check_phase(s, ph, ref, r));
  std::uint64_t attempted = ph.count;
  if (opt.trace) {
    phase_context(r, "traced", tph, check_phase(s, tph, ref, r));
    attempted += tph.count;
  }

  // Code quality over the whole warm corpus, so the set does not depend on
  // how many requests a run sends (the replies were checked against `ref`).
  std::vector<double> cyc;
  for (std::size_t p = 0; p < kCorpus; ++p)
    if (ref[p] > 0) cyc.push_back(static_cast<double>(ref[p]));
  EndToEnd e;
  window_end_to_end(ph, e, r);
  e.tail_percentile = kTailPercentile;
  e.cpu_us_per_op = per((s1.cpu_s - s0.cpu_s) * 1e6, static_cast<double>(ph.answered));
  e.cycles_geomean = geomean(cyc);
  e.peak_rss_mb = rss;
  e.setup_s = median(setups);

  if (opt.trace) {
    // Server-side layers: ilpd's pass timers over the traced phase.  They ran
    // inside the requests' wire time, so they are moved out of `wire`.
    Tracer::Accounting a = tr.account();
    const PassTimes pt = emit_registry_layers(s1.registry, s2.registry, r);
    const double moved_ns = (pt.sim_s + pt.opt_s + pt.trans_s + pt.sched_s) * 1e9;
    a.self_ns["sim"] += pt.sim_s * 1e9;
    a.self_ns["opt"] += pt.opt_s * 1e9;
    a.self_ns["trans"] += pt.trans_s * 1e9;
    a.self_ns["sched"] += pt.sched_s * 1e9;
    a.self_ns["wire"] = std::max(0.0, a.self_ns["wire"] - moved_ns);
    emit_shares(a, r);

    double cached = 0;
    for (std::size_t i = 0; i < tph.count; ++i) cached += tph.replies[i].cached ? 1 : 0;
    const double n = static_cast<double>(tph.count);
    const double received = s2.received - s1.received;
    const double server_lat = per(s2.lat_sum_us - s1.lat_sum_us, s2.lat_count - s1.lat_count);
    const double wire_us = a.total_ns["wire"] / 1e3;  // send -> reply, summed
    set_metric(r.layer, "server.transport_us", per(wire_us, n) - server_lat, "us");
    set_metric(r.layer, "server.queue_wait_us",
               per(s2.qw_sum_us - s1.qw_sum_us, s2.qw_count - s1.qw_count), "us");
    set_metric(r.layer, "server.cpu_us_per_req", per((s2.cpu_s - s1.cpu_s) * 1e6, n), "us");
    set_metric(r.layer, "engine.cache_hit_ratio", per(cached, n), "ratio");
    set_metric(r.layer, "server.coalesced_ratio", per(s2.coalesced - s1.coalesced, received),
               "ratio");
    set_metric(r.layer, "server.overloaded_ratio", per(s2.overloaded - s1.overloaded, received),
               "ratio");
    // The two phases keep the same number of requests in flight, so the
    // overhead shows as latency; medians, because a preemption burst moves a
    // mean.
    set_metric(r.layer, "trace.overhead_ratio",
               median(timed(ph.lat_us)) > 0
                   ? median(timed(tph.lat_us)) / median(timed(ph.lat_us)) - 1.0
                   : 0.0,
               "ratio");
    set_metric(r.layer, "trace.spans", static_cast<double>(tr.spans().size()), "count");

    // In-process Service::serve on the same request stream, after the
    // corpus was served once (so it is as warm as the daemon).
    ilp::server::ServiceConfig cfg;
    cfg.workers = kWorkers;
    ilp::server::Service svc(cfg);
    for (std::size_t k = 0; k < kCorpus; ++k) (void)svc.serve(compile_line(k, s.escaped[k]));
    const std::size_t replay = std::min(kReplayLimit, tph.count);
    double serve_ns = 0.0;
    for (std::size_t i = 0; i < replay; ++i) {
      const std::size_t req = tph.first + i;
      const std::string line = s.line(req);
      const std::uint64_t t0 = now_ns();
      const ilp::server::Reply rep = svc.serve(line);
      serve_ns += static_cast<double>(now_ns() - t0);
      const ReplyFields f = scan_reply(rep.to_line());
      if (!f.ok || f.cycles != static_cast<std::uint64_t>(ref[s.prog[req]]))
        r.fail(ilp::strformat("in-process serve of request %zu disagrees", req));
    }
    set_metric(r.layer, "server.serve_us", per(serve_ns / 1e3, static_cast<double>(replay)), "us");
    r.ctx("serve_replay_requests", static_cast<double>(replay));
    if (!opt.trace_dir.empty())
      tr.write_chrome(opt.trace_dir + ilp::strformat("/serve_warm-%llu.json",
                                                     static_cast<unsigned long long>(opt.seed)));
  }
  // Every check above, the traced ones included, counts toward ok_ratio.
  e.ok_ratio = ok_ratio(attempted, r.failed);
  emit_end_to_end(e, r);
  r.attempted = attempted;
  return r;
}

}  // namespace perfbench
