// Shared pieces of perfbench_driver: options, the result record, sample
// statistics, process resource readings and the registry snapshot deltas the
// per-layer metrics are computed from.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ilpd;       // path of the ilpd binary (serve_warm)
  std::string trace_dir;  // where the traced run writes its spans
};

// Set-ups per benchmark run (tune_suite: at most); setup_s is their median.
constexpr int kInprocSetups = 15;
constexpr int kServeSetups = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run reports.  `e2e` is printed with --trace 0 and `layer`
// with --trace 1; `context` (a JSON object body) goes to the result record.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::pair<std::string, std::string>> context;  // key -> JSON value

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void ctx(const std::string& key, double v);
  void ctx_json(const std::string& key, std::string json) {
    context.emplace_back(key, std::move(json));
  }
};

// --- Sample statistics -------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q);

double geomean(const std::vector<double>& v);

// num / den, or 0 when nothing was counted.
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

// ok_ratio = 1 - fail_ratio: the share of attempted ops whose outputs were
// right (0 when nothing was attempted).
inline double ok_ratio(std::uint64_t attempted, std::uint64_t failed) {
  return attempted > failed
             ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
             : 0.0;
}

// The end-to-end metrics shared by every workload, in BENCHMARK.json order.
struct EndToEnd {
  double throughput_ops_s = 0.0;
  double latency_p50_us = 0.0;
  // latency_tail_us is the median, over these groups of latency samples, of
  // each group's `tail_percentile`.  The percentile is fixed per workload:
  // the highest one with at least ten samples beyond it in every group, so a
  // group too small for it fails the run instead of moving the percentile.
  std::vector<std::vector<double>> tail_windows;
  double tail_percentile = 99.0;
  double cpu_us_per_op = 0.0;  // CPU time of the working process per op
  double ok_ratio = 1.0;
  double cycles_geomean = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};
void emit_end_to_end(const EndToEnd& e, RunResult& r);

// --- Process resources -------------------------------------------------------

// CPU seconds (user + system) of this process.
double self_cpu_s();
// CPU seconds of another process, from /proc/<pid>/stat; < 0 if unreadable.
double proc_cpu_s(int pid);
// Time the hypervisor ran something else while the machine's CPUs had work
// (the steal column of /proc/stat), summed over CPUs, in seconds.
double steal_s();
// Peak resident set (VmHWM) in MiB of `pid` (0 = this process); < 0 if
// unreadable.
double peak_rss_mb(int pid = 0);

// --- Program registry ---------------------------------------------------------

// Named totals (count and nanoseconds) from the program's own metrics
// registry: in-process from engine::MetricsRegistry, or from ilpd's
// Prometheus exposition.
struct RegistrySnap {
  std::map<std::string, double> count;
  std::map<std::string, double> seconds;

  [[nodiscard]] double c(const std::string& k) const;
  [[nodiscard]] double s(const std::string& k) const;
};
RegistrySnap registry_snapshot();
RegistrySnap parse_prometheus(const std::string& text);

// Pass wall time between two snapshots, grouped into the reported layers.
struct PassTimes {
  double compiles = 0.0;  // compile_with_transforms calls
  double opt_s = 0.0;     // conventional optimizations
  double trans_s = 0.0;   // nest pre-passes, the ILP transformations, cleanup
  double sched_s = 0.0;   // modulo pipelining and list scheduling
  double sim_runs = 0.0;
  double sim_s = 0.0;
};
PassTimes pass_times(const RegistrySnap& before, const RegistrySnap& after);

// Per-layer metrics derived from the registry's pass timers and transform
// counters between two snapshots; returns the pass times.
PassTimes emit_registry_layers(const RegistrySnap& before, const RegistrySnap& after,
                               RunResult& r);

// Self-time shares of every layer the traced run knows about, closed by the
// `unattributed` share.  Layers a workload does not exercise report 0.
void emit_shares(const Tracer::Accounting& a, RunResult& r);

// Puts the per-layer metrics in declaration order, adding 0 for every
// layer the workload does not exercise.
void finish_layers(RunResult& r);

// Sets (or adds) a metric by name.
void set_metric(std::vector<Metric>& ms, const std::string& name, double v,
                const std::string& unit);

// Workload entry points.
RunResult run_tune_suite(const Options& opt);
RunResult run_serve_warm(const Options& opt);

}  // namespace perfbench
