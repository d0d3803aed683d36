#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "engine/metrics.hpp"
#include "support/strings.hpp"

namespace perfbench {

void RunResult::ctx(const std::string& key, double v) {
  context.emplace_back(key, ilp::strformat("%.17g", v));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(std::max(x, 1.0));
  return std::exp(s / static_cast<double>(v.size()));
}

void emit_end_to_end(const EndToEnd& e, RunResult& r) {
  const double beyond = 1.0 - e.tail_percentile / 100.0;
  std::vector<double> tails;
  std::size_t smallest = 0;
  for (const std::vector<double>& w : e.tail_windows) {
    if (static_cast<double>(w.size()) * beyond + 1e-9 < 10.0) {
      r.fail(ilp::strformat("a latency group of %zu samples is too small for the p%g", w.size(),
                            e.tail_percentile));
      continue;
    }
    tails.push_back(quantile(w, e.tail_percentile / 100.0));
    smallest = smallest == 0 ? w.size() : std::min(smallest, w.size());
  }
  if (tails.empty()) r.fail("no latency group for the tail");
  r.e2e.push_back({"throughput_ops_s", e.throughput_ops_s, "1/s"});
  r.e2e.push_back({"latency_p50_us", e.latency_p50_us, "us"});
  r.e2e.push_back({"latency_tail_us", median(tails), "us"});
  r.e2e.push_back({"cpu_us_per_op", e.cpu_us_per_op, "us"});
  r.e2e.push_back({"ok_ratio", e.ok_ratio, "ratio"});
  r.e2e.push_back({"sim_cycles_geomean", e.cycles_geomean, "cycles"});
  r.e2e.push_back({"peak_rss_mb", e.peak_rss_mb, "MiB"});
  r.e2e.push_back({"setup_s", e.setup_s, "s"});
  r.ctx("latency_tail_percentile", e.tail_percentile);
  r.ctx("latency_tail_groups", static_cast<double>(tails.size()));
  r.ctx("latency_tail_samples", static_cast<double>(smallest));
  r.ctx("fail_ratio", 1.0 - e.ok_ratio);
}

double self_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double proc_cpu_s(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = s.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream in(s.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) f >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return -1.0;
}

// --- Registry ----------------------------------------------------------------

namespace {

std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
          c == '_'))
      c = '_';
  return out;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double RegistrySnap::c(const std::string& k) const { return get(count, k); }
double RegistrySnap::s(const std::string& k) const { return get(seconds, k); }

RegistrySnap registry_snapshot() {
  RegistrySnap snap;
  for (const auto& [name, stat] : ilp::engine::MetricsRegistry::global().snapshot()) {
    const std::string key = sanitize(name);
    snap.count[key] = static_cast<double>(stat.count);
    if (stat.total_ns != 0) snap.seconds[key] = static_cast<double>(stat.total_ns) / 1e9;
  }
  return snap;
}

RegistrySnap parse_prometheus(const std::string& text) {
  std::map<std::string, double> raw;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    raw[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  RegistrySnap snap;
  for (const auto& [key, v] : raw) {
    if (ends_with(key, "_seconds_total")) {
      const std::string base = key.substr(0, key.size() - 14);
      snap.seconds[base] = v;
      snap.count[base] = get(raw, base + "_count");
    } else if (snap.seconds.count(key) == 0 && snap.count.count(key) == 0) {
      snap.count[key] = v;
    }
  }
  return snap;
}

namespace {

// The program's pass timers, grouped into the layers the benchmark reports.
constexpr const char* kTransPasses[] = {
    "pass_nest_fuse", "pass_nest_interchange", "pass_nest_tile", "pass_nest_fission",
    "pass_unroll", "pass_accexpand", "pass_indexpand", "pass_searchexpand",
    "pass_rename", "pass_combine", "pass_strengthred", "pass_treeheight",
    "pass_cleanup"};
constexpr const char* kSchedPasses[] = {"pass_modulo", "pass_schedule"};
constexpr const char* kTransCounters[] = {
    "trans_loops_unrolled", "trans_regs_renamed", "trans_accs_expanded",
    "trans_inds_expanded", "trans_searches_expanded", "trans_ops_combined",
    "trans_strength_reduced", "trans_trees_rebalanced"};

double prefix_sum(const std::map<std::string, double>& m, const std::string& prefix) {
  double s = 0.0;
  for (auto it = m.lower_bound(prefix); it != m.end() && it->first.rfind(prefix, 0) == 0;
       ++it)
    s += it->second;
  return s;
}

}  // namespace

PassTimes pass_times(const RegistrySnap& b, const RegistrySnap& a) {
  const auto ds = [&](const char* k) { return a.s(k) - b.s(k); };
  PassTimes t;
  t.compiles = a.c("pass_conventional") - b.c("pass_conventional");
  t.opt_s = ds("pass_conventional");
  for (const char* p : kTransPasses) t.trans_s += ds(p);
  for (const char* p : kSchedPasses) t.sched_s += ds(p);
  t.sim_runs = a.c("pass_simulate") - b.c("pass_simulate");
  t.sim_s = ds("pass_simulate");
  return t;
}

PassTimes emit_registry_layers(const RegistrySnap& b, const RegistrySnap& a, RunResult& r) {
  const PassTimes t = pass_times(b, a);
  const auto dc = [&](const char* k) { return a.c(k) - b.c(k); };
  double applied = 0.0;
  for (const char* p : kTransCounters) applied += dc(p);
  const double before = prefix_sum(a.count, "trans_ir_insts_before_") -
                        prefix_sum(b.count, "trans_ir_insts_before_");
  const double after = prefix_sum(a.count, "trans_ir_insts_after_") -
                       prefix_sum(b.count, "trans_ir_insts_after_");
  const double pipelined = dc("sched_modulo_loops_pipelined");
  const double fallback = dc("sched_modulo_loops_fallback");
  set_metric(r.layer, "compile.us_per_cell",
             per((t.opt_s + t.trans_s + t.sched_s) * 1e6, t.compiles), "us");
  set_metric(r.layer, "opt.us_per_compile", per(t.opt_s * 1e6, t.compiles), "us");
  set_metric(r.layer, "trans.us_per_compile", per(t.trans_s * 1e6, t.compiles), "us");
  set_metric(r.layer, "sched.us_per_compile", per(t.sched_s * 1e6, t.compiles), "us");
  set_metric(r.layer, "trans.applied_per_compile", per(applied, t.compiles), "count");
  set_metric(r.layer, "trans.ir_growth_ratio", per(after, before), "ratio");
  set_metric(r.layer, "sched.modulo_pipelined_ratio", per(pipelined, pipelined + fallback),
             "ratio");
  if (t.sim_runs > 0) set_metric(r.layer, "sim.us_per_run", t.sim_s * 1e6 / t.sim_runs, "us");
  r.ctx("registry_compiles", t.compiles);
  r.ctx("registry_sim_runs", t.sim_runs);
  return t;
}

namespace {

constexpr const char* kShareLayers[] = {
    "opt", "trans", "sched", "sim", "tune.search", "tune.analyze", "tune.measure",
    "gen.wait", "wire", "unattributed"};

}  // namespace

void emit_shares(const Tracer::Accounting& a, RunResult& r) {
  for (const char* layer : kShareLayers) {
    const auto it = a.self_ns.find(layer);
    const double self = it == a.self_ns.end() ? 0.0 : it->second;
    set_metric(r.layer, std::string("share.") + layer,
               per(self, a.op_wall_ns), "ratio");
  }
  for (const auto& [layer, ns] : a.self_ns) {
    bool known = false;
    for (const char* l : kShareLayers) known = known || layer == l;
    if (!known) r.fail("span layer without a share metric: " + layer);
  }
  set_metric(r.layer, "op.wall_us",
             per(a.op_wall_ns / 1e3, static_cast<double>(a.ops)), "us");
}

void set_metric(std::vector<Metric>& ms, const std::string& name, double v,
                const std::string& unit) {
  for (Metric& m : ms)
    if (m.name == name) {
      m.value = v;
      m.unit = unit;
      return;
    }
  ms.push_back({name, v, unit});
}

namespace {

// Every per-layer metric, in BENCHMARK.json order, with its unit.
constexpr const char* kLayerMetrics[][2] = {
    {"frontend.us_per_program", "us"},
    {"frontend.ir_insts", "count"},
    {"compile.us_per_cell", "us"},
    {"opt.us_per_compile", "us"},
    {"trans.us_per_compile", "us"},
    {"sched.us_per_compile", "us"},
    {"trans.applied_per_compile", "count"},
    {"trans.ir_growth_ratio", "ratio"},
    {"sched.modulo_pipelined_ratio", "ratio"},
    {"regalloc.us_per_compile", "us"},
    {"regalloc.regs_mean", "count"},
    {"sim.us_per_run", "us"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"sim.stall_ratio", "ratio"},
    {"tune.analyze_us_per_candidate", "us"},
    {"tune.measure_us_per_candidate", "us"},
    {"tune.search_self_ratio", "ratio"},
    {"tune.simulated_ratio", "ratio"},
    {"tune.model_mape", "ratio"},
    {"server.serve_us", "us"},
    {"server.transport_us", "us"},
    {"server.queue_wait_us", "us"},
    {"server.cpu_us_per_req", "us"},
    {"engine.cache_hit_ratio", "ratio"},
    {"server.coalesced_ratio", "ratio"},
    {"server.overloaded_ratio", "ratio"},
    {"share.opt", "ratio"},
    {"share.trans", "ratio"},
    {"share.sched", "ratio"},
    {"share.sim", "ratio"},
    {"share.tune.search", "ratio"},
    {"share.tune.analyze", "ratio"},
    {"share.tune.measure", "ratio"},
    {"share.gen.wait", "ratio"},
    {"share.wire", "ratio"},
    {"share.unattributed", "ratio"},
    {"op.wall_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"}};

}  // namespace

void finish_layers(RunResult& r) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    for (const Metric& x : r.layer)
      if (x.name == name) m.value = x.value;
    out.push_back(m);
  }
  for (const Metric& x : r.layer) {
    bool known = false;
    for (const auto& [name, unit] : kLayerMetrics) known = known || x.name == name;
    if (!known) r.fail("undeclared per-layer metric " + x.name);
  }
  r.layer = std::move(out);
}

}  // namespace perfbench
