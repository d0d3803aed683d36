// The in-process workload tune_suite: one autotune search per Table-2 nest
// with a fresh cache; one op is one search.
//
// It runs whole passes over the suite, in a seeded nest order, until the
// run's seconds are used up, so every run measures the same mix of searches.
// With --trace 1 the untraced phase gets half the seconds and the traced
// phase replays exactly the same searches with spans around each layer
// call; the ratio of their wall times is the tracing overhead.
#include <algorithm>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "support/strings.hpp"
#include "tune/tune.hpp"

namespace perfbench {
namespace {

using ilp::MachineModel;
using ilp::OptLevel;

const std::vector<ilp::Workload>& suite() { return ilp::workload_suite(); }

// Nest order of each pass: a seeded shuffle, fresh for every pass.
std::vector<std::size_t> pass_order(ilp::testing::Rng& rng) {
  std::vector<std::size_t> order(suite().size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.range(0, static_cast<int>(i) - 1))]);
  return order;
}

// Whole passes over the suite, timed one by one.  A warm-up pass runs first
// and is not measured: the first pass after set-up pays for growing the
// per-thread compile contexts and allocator caches for every level and
// scheduler, which later passes do not.
struct Passes {
  std::vector<std::vector<std::size_t>> orders;  // measured passes
  std::vector<double> wall_s, cpu_s;             // per measured pass
  double warmup_s = 0.0;
};

// Runs measured passes until `seconds` have elapsed and at least
// `min_passes` were measured, after one warm-up pass.  `between` runs after
// each measured pass, outside its timing.
template <typename F, typename G>
Passes run_passes(double seconds, std::size_t min_passes, ilp::testing::Rng& rng,
                  F&& run_pass, G&& between) {
  Passes p;
  const std::uint64_t w0 = now_ns();
  run_pass(pass_order(rng), false);
  p.warmup_s = static_cast<double>(now_ns() - w0) / 1e9;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end || p.wall_s.size() < min_passes) {
    p.orders.push_back(pass_order(rng));
    const double c0 = self_cpu_s();
    const std::uint64_t t0 = now_ns();
    run_pass(p.orders.back(), true);
    p.wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    p.cpu_s.push_back(self_cpu_s() - c0);
    between();
  }
  return p;
}

// Throughput and CPU per op are medians over the passes, so a short stall
// moves one pass, not the result.  The tail is taken per group of
// `tail_passes` consecutive passes, a fixed sample count, so its percentile
// does not depend on how many passes fit in the run.  `lat_us` holds
// `ops_per_pass` samples per measured pass, in order.
void pass_end_to_end(const Passes& p, const std::vector<double>& lat_us,
                     std::size_t ops_per_pass, std::size_t tail_passes, double percentile,
                     EndToEnd& e, RunResult& r) {
  std::vector<double> rate, cpu;
  const auto n = static_cast<double>(ops_per_pass);
  for (std::size_t i = 0; i < p.wall_s.size(); ++i) {
    rate.push_back(n / p.wall_s[i]);
    cpu.push_back(p.cpu_s[i] / n);
  }
  const std::size_t group = tail_passes * ops_per_pass;
  for (std::size_t g = 0; (g + 1) * group <= lat_us.size(); ++g)
    e.tail_windows.emplace_back(lat_us.begin() + static_cast<std::ptrdiff_t>(g * group),
                                lat_us.begin() + static_cast<std::ptrdiff_t>((g + 1) * group));
  e.tail_percentile = percentile;
  e.throughput_ops_s = median(rate);
  e.latency_p50_us = median(lat_us);
  e.cpu_us_per_op = median(cpu) * 1e6;
  r.ctx("passes", static_cast<double>(p.wall_s.size()));
  r.ctx("warmup_pass_s", p.warmup_s);
  std::string walls;
  for (const double w : p.wall_s) walls += ilp::strformat("%s%.4f", walls.empty() ? "" : ", ", w);
  r.ctx_json("pass_wall_s", "[" + walls + "]");
}

// Set-up of tune_suite: load the suite, check that every nest parses, and
// compile+simulate each nest once at every level for issue 8 on the pool's
// threads, so their compile contexts are warm before timing.  Returns its
// wall time.
double inproc_setup(ilp::engine::ThreadPool& pool, RunResult& r) {
  const std::uint64_t t0 = now_ns();
  const auto& ws = suite();
  const MachineModel m = MachineModel::issue(8);
  auto warm = [&m](const ilp::Workload& w) -> std::string {
    ilp::DiagnosticEngine diags;
    if (!ilp::dsl::compile(w.source, diags)) return w.name + ": " + diags.to_string();
    for (const OptLevel level : ilp::kLevels) {
      auto c = ilp::try_compile_workload(w, level, m);
      if (!c) return c.error_message();
      auto cyc = ilp::try_simulate_cycles(c->fn, m);
      if (!cyc) return cyc.error_message();
    }
    return "";
  };
  std::vector<std::future<std::string>> fs;
  for (const auto& w : ws) fs.push_back(pool.submit([&warm, &w] { return warm(w); }));
  for (auto& f : fs) {
    const std::string e = f.get();
    if (!e.empty()) r.fail("setup: " + e);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// Interpreter reference for one nest: the unoptimised frontend IR, run on
// the same seeded inputs the simulator sees.
struct Reference {
  bool ok = false;
  std::string error;
  ilp::Function fn{"ref"};
  ilp::RunOutcome outcome;
};

Reference interpret_nest(const ilp::Workload& w) {
  Reference ref;
  ilp::DiagnosticEngine diags;
  auto base = ilp::dsl::compile(w.source, diags);
  if (!base) {
    ref.error = diags.to_string();
    return ref;
  }
  ilp::seed_arrays(base->fn, ref.outcome.memory);
  ilp::testing::InterpResult ir = ilp::testing::interpret(base->fn, ref.outcome.memory);
  if (!ir.ok) {
    ref.error = ir.error;
    return ref;
  }
  ref.outcome.result.ok = true;
  ref.outcome.result.regs = std::move(ir.regs);
  ref.fn = std::move(base->fn);
  ref.ok = true;
  return ref;
}

// The FP tolerance of the repository's level differential tests
// (tests/fuzz/differential_fuzz_test.cpp): expansion reassociates sums.
constexpr double kFpTolerance = 1e-6;

// --- tune_suite ---------------------------------------------------------------

// Wraps the in-process evaluator so each analyze/measure batch the search
// issues becomes a span under the search, and counts candidates per batch.
class TracedEvaluator : public ilp::tune::Evaluator {
 public:
  TracedEvaluator(ilp::tune::Evaluator& inner, Tracer& tr) : inner_(inner), tr_(tr) {}
  void bind(std::uint64_t op, std::int32_t parent) {
    op_ = op;
    parent_ = parent;
  }
  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<ilp::tune::TuneConfig>& cfgs) override {
    SpanScope s(&tr_, "tune.analyze", op_, parent_);
    analyzed += static_cast<double>(cfgs.size());
    return inner_.analyze(source, issue, cfgs);
  }
  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<ilp::tune::TuneConfig>& cfgs) override {
    SpanScope s(&tr_, "tune.measure", op_, parent_);
    measured += static_cast<double>(cfgs.size());
    return inner_.measure(source, issue, cfgs);
  }
  double analyzed = 0.0;
  double measured = 0.0;

 private:
  ilp::tune::Evaluator& inner_;
  Tracer& tr_;
  std::uint64_t op_ = 0;
  std::int32_t parent_ = -1;
};

// Independent check of a search's answer: compile the source at the best
// configuration, simulate it, and compare the cycles with the search's and
// the final state with the interpreter's.
std::string check_best(const ilp::Workload& w, const ilp::tune::TuneResult& t) {
  if (!t.ok) return "search failed: " + t.error;
  if (t.best_cycles == 0 || t.best_cycles > t.lev4_cycles)
    return ilp::strformat("best %llu worse than Lev4 %llu",
                          static_cast<unsigned long long>(t.best_cycles),
                          static_cast<unsigned long long>(t.lev4_cycles));
  const MachineModel m = MachineModel::issue(ilp::tune::TuneOptions{}.issue);
  auto c = ilp::try_compile_workload(w, t.best.level, m, ilp::tune::to_compile_options(t.best));
  if (!c) return c.error_message();
  const ilp::RunOutcome got = ilp::run_seeded(c->fn, m);
  if (!got.result.ok) return "simulation failed: " + got.result.error;
  if (got.result.cycles != t.best_cycles)
    return ilp::strformat("best %s simulates to %llu, search said %llu", t.best.name().c_str(),
                          static_cast<unsigned long long>(got.result.cycles),
                          static_cast<unsigned long long>(t.best_cycles));
  const Reference ref = interpret_nest(w);
  if (!ref.ok) return "interpreter: " + ref.error;
  const std::string diff = ilp::compare_observable(ref.fn, ref.outcome, got, kFpTolerance);
  return diff.empty() ? "" : "best config output differs from interpreter: " + diff;
}

}  // namespace

RunResult run_tune_suite(const Options& opt) {
  RunResult r;
  // One evaluator thread: a search then runs serially, so its wall time
  // tracks its own CPU time and does not wait for the slowest of several
  // threads whenever the host preempts one of them.
  constexpr unsigned threads = 1;
  ilp::engine::ThreadPool pool(threads);
  r.ctx("evaluator_threads", threads);
  // Set-up runs once before anything else and again after each measured
  // pass, up to kInprocSetups times: the host's speed drifts over tens of
  // seconds, and set-ups spread over the run see the same drift as the
  // passes, where back-to-back ones see a single moment of it.
  std::vector<double> setups{inproc_setup(pool, r)};
  const auto more_setups = [&] {
    if (setups.size() < static_cast<std::size_t>(kInprocSetups))
      setups.push_back(inproc_setup(pool, r));
  };
  const auto& ws = suite();
  ilp::testing::Rng rng(opt.seed);
  const ilp::tune::TuneOptions topts;  // the service defaults

  std::map<std::size_t, ilp::tune::TuneResult> results;  // nest -> first result
  std::vector<double> lat_us;
  std::uint64_t attempted = 0;
  const Passes passes = run_passes(
      opt.trace ? opt.seconds / 2 : opt.seconds, 3, rng, [&](const auto& order, bool measured) {
        for (const std::size_t n : order) {
          ilp::engine::ResultCache cache;
          ilp::tune::LocalEvaluator ev(&pool, &cache);
          const std::uint64_t s = now_ns();
          ilp::tune::TuneResult t = ilp::tune::autotune(ws[n].source, topts, ev);
          if (measured) {
            lat_us.push_back(static_cast<double>(now_ns() - s) / 1e3);
            ++attempted;
          }
          if (!t.ok) {
            r.fail(ws[n].name + ": " + t.error);
            continue;
          }
          auto [it, fresh] = results.try_emplace(n, std::move(t));
          if (!fresh && it->second.signature() != t.signature())
            r.fail(ws[n].name + ": search differs between passes");
        }
      },
      more_setups);

  std::vector<double> best;
  for (const auto& [n, t] : results) {
    best.push_back(static_cast<double>(t.best_cycles));
    const std::string err = check_best(ws[n], t);
    if (!err.empty()) r.fail(ws[n].name + ": " + err);
  }
  EndToEnd e;
  // Three passes: 120 searches, so the tail is the p90.
  pass_end_to_end(passes, lat_us, ws.size(), 3, 90.0, e, r);
  e.cycles_geomean = geomean(best);
  e.peak_rss_mb = peak_rss_mb();
  e.setup_s = median(setups);
  r.ctx("setup_runs", static_cast<double>(setups.size()));

  if (opt.trace) {
    Tracer tr;
    std::uint64_t op = 0;
    double considered = 0, simulated = 0, cache_hits = 0, mape = 0;
    double analyzed = 0, measured = 0;
    const RegistrySnap reg0 = registry_snapshot();
    for (const auto& order : passes.orders) {
      for (const std::size_t n : order) {
        ++attempted;
        ++op;
        ilp::engine::ResultCache cache;
        ilp::tune::LocalEvaluator local(&pool, &cache);
        TracedEvaluator ev(local, tr);
        ilp::tune::TuneResult t;
        {
          SpanScope root(&tr, "search", op, -1);
          SpanScope s(&tr, "tune.search", op, root.index());
          ev.bind(op, s.index());
          t = ilp::tune::autotune(ws[n].source, topts, ev);
        }
        analyzed += ev.analyzed;
        measured += ev.measured;
        const auto it = results.find(n);
        if (!t.ok || it == results.end() || it->second.signature() != t.signature()) {
          r.fail(ws[n].name + ": traced search differs from untraced");
          continue;
        }
        considered += static_cast<double>(t.considered);
        simulated += static_cast<double>(t.simulated);
        cache_hits += static_cast<double>(t.cache_hits);
        mape += t.model_mape;
      }
    }
    const RegistrySnap reg1 = registry_snapshot();
    emit_registry_layers(reg0, reg1, r);

    // After the searches, call by call for each searched program: its
    // frontend lowering, and the register use and simulation of the best
    // configuration its search found.
    const MachineModel m = MachineModel::issue(topts.issue);
    double fe_us = 0, fe_insts = 0, compiled = 0, regalloc_us = 0, regs = 0;
    double sim_us = 0, sim_instr = 0, sim_cycles = 0, sim_stalls = 0;
    for (const auto& [n, t] : results) {
      std::uint64_t t0 = now_ns();
      ilp::DiagnosticEngine diags;
      auto lowered = ilp::dsl::compile(ws[n].source, diags);
      fe_us += static_cast<double>(now_ns() - t0) / 1e3;
      if (lowered) fe_insts += static_cast<double>(lowered->fn.num_insts());
      auto c = ilp::try_compile_workload(ws[n], t.best.level, m,
                                         ilp::tune::to_compile_options(t.best));
      if (!c) continue;  // counted by check_best
      ++compiled;
      t0 = now_ns();
      regs += ilp::measure_register_usage(c->fn).total();
      regalloc_us += static_cast<double>(now_ns() - t0) / 1e3;
      t0 = now_ns();
      const ilp::RunOutcome got = ilp::run_seeded(c->fn, m);
      sim_us += static_cast<double>(now_ns() - t0) / 1e3;
      sim_instr += static_cast<double>(got.result.instructions);
      sim_cycles += static_cast<double>(got.result.cycles);
      sim_stalls += static_cast<double>(got.result.stall_cycles);
    }
    const auto programs = static_cast<double>(results.size());
    set_metric(r.layer, "frontend.us_per_program", per(fe_us, programs), "us");
    set_metric(r.layer, "frontend.ir_insts", per(fe_insts, programs), "count");
    set_metric(r.layer, "regalloc.us_per_compile", per(regalloc_us, compiled), "us");
    set_metric(r.layer, "regalloc.regs_mean", per(regs, compiled), "count");
    set_metric(r.layer, "sim.minstr_per_s", per(sim_instr, sim_us), "Minstr/s");
    set_metric(r.layer, "sim.stall_ratio", per(sim_stalls, sim_cycles), "ratio");

    const Tracer::Accounting a = tr.account();
    emit_shares(a, r);
    const double searches = static_cast<double>(a.ops);
    const auto total = [&a](const char* k) {
      return a.total_ns.count(k) ? a.total_ns.at(k) : 0.0;
    };
    const auto self = [&a](const char* k) { return a.self_ns.count(k) ? a.self_ns.at(k) : 0.0; };
    set_metric(r.layer, "tune.analyze_us_per_candidate",
               per(total("tune.analyze") / 1e3, analyzed), "us");
    set_metric(r.layer, "tune.measure_us_per_candidate",
               per(total("tune.measure") / 1e3, measured), "us");
    set_metric(r.layer, "tune.search_self_ratio", per(self("tune.search"), total("tune.search")),
               "ratio");
    set_metric(r.layer, "tune.simulated_ratio", per(simulated, considered), "ratio");
    set_metric(r.layer, "tune.model_mape", per(mape, searches), "ratio");
    set_metric(r.layer, "engine.cache_hit_ratio", per(cache_hits, simulated), "ratio");
    const double untraced_us =
        std::accumulate(lat_us.begin(), lat_us.end(), 0.0) / static_cast<double>(lat_us.size());
    set_metric(r.layer, "trace.overhead_ratio",
               untraced_us > 0 ? per(a.op_wall_ns / 1e3, searches) / untraced_us - 1.0 : 0.0,
               "ratio");
    set_metric(r.layer, "trace.spans", static_cast<double>(tr.spans().size()), "count");
    if (!opt.trace_dir.empty())
      tr.write_chrome(opt.trace_dir + ilp::strformat("/tune_suite-%llu.json",
                                                     static_cast<unsigned long long>(opt.seed)));
  }
  // Every check above, the traced ones included, counts toward ok_ratio.
  e.ok_ratio = ok_ratio(attempted, r.failed);
  emit_end_to_end(e, r);
  r.attempted = attempted;
  return r;
}

}  // namespace perfbench
