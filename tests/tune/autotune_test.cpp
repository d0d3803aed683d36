// Autotuner tests: deterministic search, the never-worse-than-Lev4 floor,
// cache-driven repeat tuning, the fixed-subgrid pruning audit, the
// differential interpreter oracle over tuned fuzz programs, and the
// fresh-compile oracle for LocalEvaluator's compile-once / simulate-once
// reuse.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common/fixtures.hpp"
#include "common/interp.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "frontend/compile.hpp"
#include "harness/experiment.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"
#include "tune/tune.hpp"
#include "workloads/suite.hpp"

namespace ilp {
namespace {

using testing::fuzz_seed_count;
using testing::random_program;
using testing::run_digest;

tune::TuneOptions small_budget() {
  tune::TuneOptions opts;
  opts.beam_width = 2;
  opts.max_rounds = 2;
  opts.max_sims = 16;
  return opts;
}

const std::string& suite_source(const char* name) {
  const Workload* w = find_workload(name);
  EXPECT_NE(w, nullptr) << name;
  return w->source;
}

// --- Determinism ------------------------------------------------------------

// The search must be a pure function of (source, options): rerunning it,
// running it on a thread pool, and running it against a warm cache must all
// produce byte-identical signatures (the signature covers every candidate,
// its round, prune/simulate flag, and cycles).
TEST(Autotune, DeterministicAcrossRerunsParallelismAndCacheWarmth) {
  const std::string& src = suite_source("APS-1");
  const tune::TuneResult serial = tune::autotune(src, small_budget());
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_GT(serial.lev4_cycles, 0u);

  const tune::TuneResult again = tune::autotune(src, small_budget());
  EXPECT_EQ(serial.signature(), again.signature());

  engine::ThreadPool pool(4);
  engine::ResultCache cache;
  const tune::TuneResult parallel =
      tune::autotune(src, small_budget(), &pool, &cache);
  EXPECT_EQ(serial.signature(), parallel.signature());

  const tune::TuneResult warm =
      tune::autotune(src, small_budget(), &pool, &cache);
  EXPECT_EQ(serial.signature(), warm.signature());
}

// --- The floor: best found is never worse than Lev4 -------------------------

TEST(Autotune, BestNeverWorseThanLev4OnWholeSuite) {
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  for (const Workload& w : workload_suite()) {
    tune::TuneOptions opts = small_budget();
    opts.max_rounds = 1;
    const tune::TuneResult r = tune::autotune(w.source, opts, &pool, &cache);
    ASSERT_TRUE(r.ok) << w.name << ": " << r.error;
    ASSERT_GT(r.lev4_cycles, 0u) << w.name;
    // The Lev4 seed is always simulated, so this holds by construction; it
    // failing means the seed round or the ranking lost a result.
    EXPECT_LE(r.best_cycles, r.lev4_cycles) << w.name;
    EXPECT_GE(r.speedup_vs_lev4(), 1.0) << w.name;
  }
}

// --- Bookkeeping ------------------------------------------------------------

TEST(Autotune, CountsAreConsistentAndAuditTrailIsComplete) {
  const tune::TuneResult r = tune::autotune(suite_source("NAS-2"), small_budget());
  ASSERT_TRUE(r.ok) << r.error;
  // Every considered candidate lands in the audit trail exactly once:
  // simulated, pruned, or failed-to-analyze.
  EXPECT_EQ(r.evals.size(), r.considered);
  EXPECT_LE(r.simulated + r.pruned, r.considered);
  EXPECT_GE(r.simulated, kLevels.size());  // seeds are always simulated
  EXPECT_LE(r.simulated, static_cast<std::uint64_t>(small_budget().max_sims));
  std::uint64_t simulated = 0, pruned = 0, failed = 0;
  for (const tune::CandidateEval& e : r.evals) {
    if (e.simulated)
      ++simulated;
    else if (e.ok)
      ++pruned;
    else
      ++failed;
    if (e.simulated && e.ok) {
      EXPECT_GT(e.cycles, 0u) << e.config.name();
    }
  }
  EXPECT_EQ(simulated, r.simulated);
  EXPECT_EQ(pruned, r.pruned);
  EXPECT_EQ(simulated + pruned + failed, r.considered);
}

TEST(Autotune, RepeatTuningIsServedFromTheCache) {
  engine::ResultCache cache;
  const std::string& src = suite_source("APS-3");
  const tune::TuneResult cold = tune::autotune(src, small_budget(), nullptr, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits, 0u);

  std::uint64_t ok_sims = 0;
  for (const tune::CandidateEval& e : cold.evals)
    if (e.simulated && e.ok) ++ok_sims;

  const tune::TuneResult warm = tune::autotune(src, small_budget(), nullptr, &cache);
  ASSERT_TRUE(warm.ok) << warm.error;
  // Determinism means the second search simulates the same candidates, and
  // every successful measurement replays from the cache.
  EXPECT_EQ(warm.signature(), cold.signature());
  EXPECT_EQ(warm.cache_hits, ok_sims);
}

TEST(Autotune, CancelledStopsAfterSeedsWithBestSoFar) {
  tune::TuneOptions opts = small_budget();
  opts.cancelled = [] { return true; };
  const tune::TuneResult r = tune::autotune(suite_source("APS-1"), opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.simulated, kLevels.size());  // exactly the seed round
  EXPECT_LE(r.best_cycles, r.lev4_cycles);
}

TEST(Autotune, BrokenSourceReportsErrorNotCrash) {
  const tune::TuneResult r = tune::autotune("loop { this is not a program",
                                            small_budget());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

// --- Pruning audit ----------------------------------------------------------

// The cost-model contract from the issue: on a fixed sub-grid, pruning must
// skip a substantial share of the grid while still finding the exhaustive
// best.  The audit measures the pruned-away set too (ground truth), so
// precision is exact, not sampled.
TEST(Autotune, PruningAuditEqualBestOnSubgrid) {
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  tune::LocalEvaluator eval(&pool, &cache);
  const std::vector<tune::TuneConfig> grid = tune::default_audit_grid();
  for (const char* name : {"APS-1", "NAS-1", "SRS-1", "TFS-1"}) {
    const tune::PruningAudit a =
        tune::audit_pruning(suite_source(name), tune::TuneOptions{}, grid, eval);
    ASSERT_TRUE(a.ok) << name << ": " << a.error;
    EXPECT_EQ(a.grid_size, grid.size()) << name;
    EXPECT_GE(a.pruned_fraction(), 0.30) << name;
    EXPECT_TRUE(a.equal_best())
        << name << ": pruned best " << a.pruned_best << " vs exhaustive best "
        << a.exhaustive_best;
    EXPECT_GT(a.precision(), 0.0) << name;
  }
}

// --- Differential interpreter oracle over tuned fuzz programs ---------------

// For every tuned random program: the winning configuration must (a) run
// under the independent interpreter and produce a stable digest — the same
// config recompiled digests identically, pinning compile determinism — and
// (b) agree with the unoptimized baseline on observable state under the
// standard fp tolerance (Lev3+ winners legally reassociate fp reductions, so
// bit-exactness against the baseline is not required across configs).
TEST(Autotune, TunedFuzzProgramsPreserveSemantics) {
  const int n = fuzz_seed_count(12);
  engine::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  engine::ResultCache cache;
  const MachineModel m = MachineModel::issue(8);
  for (int seed = 1; seed <= n; ++seed) {
    const std::string src = random_program(static_cast<std::uint64_t>(seed));
    tune::TuneOptions opts = small_budget();
    opts.max_rounds = 1;
    const tune::TuneResult r = tune::autotune(src, opts, &pool, &cache);
    ASSERT_TRUE(r.ok) << "seed=" << seed << ": " << r.error << "\n" << src;
    ASSERT_LE(r.best_cycles, r.lev4_cycles) << "seed=" << seed;

    DiagnosticEngine diags;
    auto base = dsl::compile(src, diags);
    ASSERT_TRUE(base.has_value()) << diags.to_string();
    const RunOutcome want = run_seeded(base->fn, m);
    ASSERT_TRUE(want.result.ok) << want.result.error << "\n" << src;

    Workload w;
    w.name = "tuned-fuzz";
    w.source = src;
    const auto compile_winner = [&] {
      return try_compile_workload(w, r.best.level, m,
                                  tune::to_compile_options(r.best));
    };
    auto winner = compile_winner();
    ASSERT_TRUE(winner) << "seed=" << seed << ": " << winner.error_message();

    // (a) Interpreter digest: runs, and is reproducible across recompiles.
    bool ok = false;
    std::string err;
    const std::uint64_t digest = run_digest(winner->fn, &ok, &err);
    ASSERT_TRUE(ok) << "seed=" << seed << " config=" << r.best.name() << ": "
                    << err << "\n" << src;
    auto winner2 = compile_winner();
    ASSERT_TRUE(winner2);
    EXPECT_EQ(run_digest(winner2->fn), digest)
        << "seed=" << seed << " config=" << r.best.name();

    // (b) Interpreter state matches the simulator's baseline observables.
    RunOutcome interp;
    seed_arrays(winner->fn, interp.memory);
    testing::InterpResult ir = testing::interpret(winner->fn, interp.memory);
    ASSERT_TRUE(ir.ok) << ir.error;
    interp.result.ok = true;
    interp.result.regs = std::move(ir.regs);
    const std::string diff = compare_observable(base->fn, want, interp, 1e-6);
    ASSERT_EQ(diff, "") << "seed=" << seed << " config=" << r.best.name()
                        << "\n" << src;
  }
}

// --- Compile once, simulate each distinct program once ----------------------

Workload adhoc(const std::string& source) {
  Workload w;
  w.name = "tune";
  w.source = source;
  return w;
}

// The reference evaluator: compiles from source on every call and reuses
// nothing — no held compiles, no program memo, no cache.
class FreshEvaluator : public tune::Evaluator {
 public:
  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<tune::TuneConfig>& cfgs) override {
    const MachineModel m = MachineModel::issue(issue);
    std::vector<Analysis> out(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      auto c = try_compile_workload(adhoc(source), cfgs[i].level, m,
                                    tune::to_compile_options(cfgs[i]));
      if (!c) {
        out[i].error = c.error_message();
        continue;
      }
      out[i].ok = true;
      out[i].features = tune::extract_features(c->fn, m);
    }
    return out;
  }
  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<tune::TuneConfig>& cfgs) override {
    const MachineModel m = MachineModel::issue(issue);
    std::vector<Measurement> out(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      auto c = try_compile_workload(adhoc(source), cfgs[i].level, m,
                                    tune::to_compile_options(cfgs[i]));
      if (!c) {
        out[i].error = c.error_message();
        continue;
      }
      auto sim = try_simulate_profile(c->fn, m);
      if (!sim) {
        out[i].error = sim.error_message();
        continue;
      }
      const std::string violation = sim->profile.check_conservation();
      if (!violation.empty()) {
        out[i].error = "profile conservation violated: " + violation;
        continue;
      }
      out[i].ok = true;
      out[i].cycles = sim->result.cycles;
      out[i].mem_wait = sim->profile.fraction(StallCause::MemWait);
    }
    return out;
  }
};

std::vector<std::pair<std::string, std::string>> suite_and_fuzz_sources() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Workload& w : workload_suite()) out.emplace_back(w.name, w.source);
  const int n = fuzz_seed_count(12);
  for (int seed = 1; seed <= n; ++seed)
    out.emplace_back(strformat("fuzz-%d", seed),
                     random_program(static_cast<std::uint64_t>(seed)));
  return out;
}

// (a) Reuse never changes a search: over every suite nest and fuzz program,
// LocalEvaluator — serial, pooled, and pooled again over its own warm memo —
// returns exactly what compiling and simulating every candidate afresh
// returns, down to the cost model's error (to_json carries model_mape).
TEST(Autotune, LocalEvaluatorMatchesFreshCompilesOnSuiteAndFuzz) {
  engine::ThreadPool pool(4);
  const tune::TuneOptions opts;  // the service defaults
  for (const auto& [name, src] : suite_and_fuzz_sources()) {
    FreshEvaluator fresh;
    const tune::TuneResult want = tune::autotune(src, opts, fresh);
    ASSERT_TRUE(want.ok) << name << ": " << want.error;

    tune::LocalEvaluator serial;
    const tune::TuneResult got = tune::autotune(src, opts, serial);
    EXPECT_EQ(got.signature(), want.signature()) << name;
    EXPECT_EQ(got.to_json(), want.to_json()) << name;

    tune::LocalEvaluator pooled(&pool);
    for (int pass = 0; pass < 2; ++pass) {
      const tune::TuneResult p = tune::autotune(src, opts, pooled);
      EXPECT_EQ(p.signature(), want.signature()) << name << " pass " << pass;
      EXPECT_EQ(p.to_json(), want.to_json()) << name << " pass " << pass;
    }
  }
}

// measure() on configs analyze() never saw compiles them itself, and an
// analyze() of another source drops the first source's state.
TEST(Autotune, MeasureWithoutAnalyzeAndSourceSwitchMatchFresh) {
  const std::vector<tune::TuneConfig> grid = tune::default_audit_grid();
  FreshEvaluator fresh;
  tune::LocalEvaluator local;
  for (const char* name : {"APS-1", "NAS-2", "APS-1"}) {
    const std::string& src = suite_source(name);
    const auto want = fresh.measure(src, 8, grid);
    const auto got = local.measure(src, 8, grid);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(got[i].ok, want[i].ok) << name << " " << grid[i].name();
      EXPECT_EQ(got[i].cycles, want[i].cycles) << name << " " << grid[i].name();
      EXPECT_EQ(got[i].mem_wait, want[i].mem_wait) << name << " " << grid[i].name();
      EXPECT_FALSE(got[i].cache_hit);
    }
  }
  const auto broken = local.measure("loop { not a program", 8, grid);
  const auto broken_fresh = fresh.measure("loop { not a program", 8, grid);
  EXPECT_FALSE(broken[0].ok);
  EXPECT_EQ(broken[0].error, broken_fresh[0].error);
}

// A two-instruction-plus-load kernel for the key exactness checks.
Function key_probe(const char* array_name, double imm, bool swapped) {
  Function fn("probe");
  const std::int32_t arr = fn.add_array({array_name, 4096, 8, 16, true});
  const BlockId b = fn.add_block("entry");
  const Reg base = fn.new_int_reg();
  const Reg x = fn.new_fp_reg();
  const Reg y = fn.new_fp_reg();
  std::vector<Instruction>& insts = fn.block(b).insts;
  insts.push_back(make_ldi(base, 4096));
  insts.push_back(make_fldi(x, imm));
  insts.push_back(make_load(Opcode::FLD, y, base, 8, arr));
  insts.push_back(make_ret());
  fn.add_live_out(x);
  fn.add_live_out(y);
  fn.renumber();
  if (swapped) std::swap(insts[1], insts[2]);
  return fn;
}

std::string describe(const SimResult& r) {
  std::string out = strformat("ok=%d cycles=%llu insts=%llu branches=%llu stalls=%llu",
                              r.ok ? 1 : 0, static_cast<unsigned long long>(r.cycles),
                              static_cast<unsigned long long>(r.instructions),
                              static_cast<unsigned long long>(r.branches),
                              static_cast<unsigned long long>(r.stall_cycles));
  for (const std::int64_t v : r.regs.ints) out += strformat(" i%lld", static_cast<long long>(v));
  for (const double v : r.regs.fps) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    out += strformat(" f%016llx", static_cast<unsigned long long>(bits));
  }
  return out;
}

// (b) The program memo's key is exact: programs differing only in an array
// name, a -0.0 vs 0.0 immediate (equal as doubles), the order of two
// instructions or the issue width get distinct keys.
TEST(Autotune, ProgramKeyDistinguishesNearTwins) {
  const std::string base = tune::program_key(key_probe("a", 0.0, false), 8);
  EXPECT_EQ(base, tune::program_key(key_probe("a", 0.0, false), 8));
  EXPECT_NE(base, tune::program_key(key_probe("b", 0.0, false), 8));
  EXPECT_NE(base, tune::program_key(key_probe("a", -0.0, false), 8));
  EXPECT_NE(base, tune::program_key(key_probe("a", 0.0, true), 8));
  EXPECT_NE(base, tune::program_key(key_probe("a", 0.0, false), 4));
}

// (b) Every reuse the memo makes on the suite is sound: each simulated
// config whose compiled program shares its key with an earlier one
// re-simulates to an identical SimResult, final memory and CycleProfile.
// The "tune.reused" counter equals the number of such repeats, so the
// search simulated each distinct program exactly once.
TEST(Autotune, EveryMemoReuseOnTheSuiteResimulatesIdentically) {
  engine::ThreadPool pool(4);
  const tune::TuneOptions opts;
  const MachineModel m = MachineModel::issue(opts.issue);
  const auto reused = [] {
    for (const auto& [name, stat] : engine::MetricsRegistry::global().snapshot())
      if (name == "tune.reused") return stat.count;
    return std::uint64_t{0};
  };
  std::uint64_t repeats_total = 0;
  for (const Workload& w : workload_suite()) {
    const std::uint64_t reused_before = reused();
    tune::LocalEvaluator eval(&pool);
    const tune::TuneResult r = tune::autotune(w.source, opts, eval);
    ASSERT_TRUE(r.ok) << w.name << ": " << r.error;

    struct First {
      RunOutcome run;
      CycleProfile profile;
    };
    std::map<std::string, First> firsts;
    std::uint64_t repeats = 0;
    for (const tune::CandidateEval& e : r.evals) {
      if (!e.simulated) continue;
      auto c = try_compile_workload(w, e.config.level, m, tune::to_compile_options(e.config));
      ASSERT_TRUE(c) << w.name << " " << e.config.name();
      First now;
      SimOptions so;
      so.profile = &now.profile;
      now.run = run_seeded(c->fn, m, std::move(so));
      ASSERT_TRUE(now.run.result.ok) << w.name << " " << e.config.name();
      const auto [it, fresh] = firsts.try_emplace(tune::program_key(c->fn, opts.issue));
      if (fresh) {
        it->second = std::move(now);
        continue;
      }
      ++repeats;
      const First& was = it->second;
      EXPECT_EQ(describe(now.run.result), describe(was.run.result))
          << w.name << " " << e.config.name();
      EXPECT_EQ(now.profile.to_json(), was.profile.to_json())
          << w.name << " " << e.config.name();
      EXPECT_EQ(compare_observable(c->fn, was.run, now.run, 0.0), "")
          << w.name << " " << e.config.name();
    }
    EXPECT_EQ(reused() - reused_before, repeats) << w.name;
    repeats_total += repeats;
  }
  EXPECT_GT(repeats_total, 0u) << "the suite never repeats a program";
}

}  // namespace
}  // namespace ilp
