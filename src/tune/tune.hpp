// Autotuner: beam search over the transformation space, cost-model pruned.
//
// The paper fixes five transformation levels; the repo exposes a much larger
// per-program space — {level, unroll factor, nest pass subset, tile size,
// scheduler backend}.  autotune() searches it with simulated cycles as the
// objective:
//
//   round 0   the five paper levels at the default knobs (always simulated —
//             the Lev4 seed makes "never worse than Lev4" hold by
//             construction, and the seeds calibrate the cost model);
//   round k   every single-knob mutation of the current beam, deduplicated
//             against everything already visited, is *analyzed* (compiled,
//             features extracted) and ranked by the cost model; only the top
//             `sim_fraction` (at least `beam_width`) is *simulated*, the
//             rest are pruned.  Survivors refresh the calibration and the
//             beam; the search stops when no round improves the best, the
//             rounds or simulation budget runs out, or `cancelled()` fires.
//
// Everything is deterministic for a fixed (source, options): candidates are
// generated in sorted order, evaluated batches are collected by submission
// index, calibration updates happen in index order, and every ranking uses
// explicit (value, config-order) keys — so a parallel evaluator returns
// byte-identical results to a serial one, and identical requests coalesce
// on content hash.  Evaluation is abstracted behind `Evaluator` so the same
// search core runs in-process (ilpc/bench: thread pool + result cache) and
// inside ilpd (shard-pinned jobs sharing the service's cell cache).
//
// The in-process LocalEvaluator does each piece of a search's work once: it
// lowers the source once, measures the very candidates analyze() compiled,
// and simulates each distinct compiled program once (many configurations
// compile to the same code — a nest pass that does not apply, an unroll
// factor above the trip count).  None of this changes what a search decides.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "engine/pool.hpp"
#include "ir/function.hpp"
#include "sched/modulo/modulo.hpp"
#include "support/expected.hpp"
#include "trans/level.hpp"
#include "trans/nest/nest.hpp"
#include "tune/costmodel.hpp"
#include "workloads/suite.hpp"

namespace ilp::tune {

// One point of the search space.
struct TuneConfig {
  OptLevel level = OptLevel::Lev4;
  int unroll = 8;
  NestOptions nest;
  SchedulerKind scheduler = SchedulerKind::List;

  bool operator==(const TuneConfig&) const = default;

  // Dense, total, deterministic order used for dedup and every tie-break.
  [[nodiscard]] std::uint64_t order_key() const;
  // Compact human-readable name, e.g. "Lev4/u8/list" or
  // "Lev3/u4/modulo+interchange+tile16".
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::string to_json() const;
};

// The tuner's reference point: Lev4 at the service defaults.
[[nodiscard]] TuneConfig default_config();
[[nodiscard]] CompileOptions to_compile_options(const TuneConfig& c);

struct TuneOptions {
  int issue = 8;
  int beam_width = 4;        // configs carried between rounds
  int max_rounds = 3;        // mutation rounds after the seed round
  double sim_fraction = 0.5; // share of each analyzed frontier simulated
  int max_sims = 48;         // simulation budget, seeds included
  bool use_cost_model = true;  // false: simulate every candidate (exhaustive)
  // Polled between evaluation batches; true stops the search with the best
  // found so far (`stopped_early` set).  Wire deadlines and drains here.
  std::function<bool()> cancelled;
};

// Audit record of one candidate, in deterministic evaluation order.
struct CandidateEval {
  TuneConfig config;
  int round = 0;
  bool simulated = false;   // false: pruned by the cost model (or budget)
  bool ok = true;           // compile/simulate succeeded
  std::uint64_t cycles = 0; // simulated cycles when simulated && ok
  double predicted = 0.0;   // cost-model estimate at ranking time
  bool cache_hit = false;   // measurement served from the result cache
  std::string error;
};

struct TuneResult {
  bool ok = false;
  std::string error;
  bool stopped_early = false;  // cancelled() fired mid-search

  TuneConfig best;
  std::uint64_t best_cycles = 0;
  std::uint64_t lev4_cycles = 0;  // the default_config() seed's cycles

  int rounds = 0;  // mutation rounds actually run
  std::uint64_t considered = 0;
  std::uint64_t simulated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t cache_hits = 0;
  double model_mape = 0.0;

  std::vector<CandidateEval> evals;

  [[nodiscard]] double speedup_vs_lev4() const {
    return best_cycles == 0 ? 0.0
                            : static_cast<double>(lev4_cycles) /
                                  static_cast<double>(best_cycles);
  }
  // Deterministic digest of the search (configs, flags, cycles — everything
  // except cache hits, which legitimately vary with cache warmth).  Equal
  // signatures mean "the same search happened"; the determinism tests and
  // the parallel-vs-serial oracle compare these.
  [[nodiscard]] std::string signature() const;
  // JSON object (schema "tune-result-v1") embedded in ilpd autotune
  // responses and bench rows.
  [[nodiscard]] std::string to_json() const;
};

// Evaluation backend.  Batch interfaces return one entry per input config at
// the same index; implementations may run members concurrently but must not
// reorder results.
class Evaluator {
 public:
  struct Analysis {
    bool ok = false;
    IrFeatures features;
    std::string error;
  };
  struct Measurement {
    bool ok = false;
    std::uint64_t cycles = 0;
    // CycleProfile mem-wait slot share of the run (cached alongside cycles);
    // the default seed's value feeds the cost model's load correction.
    double mem_wait = 0.0;
    bool cache_hit = false;
    std::string error;
  };

  virtual ~Evaluator() = default;
  // Compile + feature extraction, no simulation (the cheap phase the model
  // ranks from).
  virtual std::vector<Analysis> analyze(const std::string& source, int issue,
                                        const std::vector<TuneConfig>& cfgs) = 0;
  // The simulated cycles of each config's compiled program.  An evaluator
  // may reuse what it already has — a compile from analyze(), a cached or
  // identical program's measurement — but the result must equal a fresh
  // compile + simulate; measure() without a prior analyze() must work.
  virtual std::vector<Measurement> measure(const std::string& source, int issue,
                                           const std::vector<TuneConfig>& cfgs) = 0;
};

// Exact encoding of everything the simulator reads from `fn` run on the
// issue-`issue` machine: every instruction field (doubles by bit pattern),
// block layout and names, arrays, live-outs and register counts.  Programs
// with equal keys simulate identically — cycles, state and cycle profile.
[[nodiscard]] std::string program_key(const Function& fn, int issue);

// In-process evaluator for ilpc/bench/tests: optional thread pool for
// concurrency (null: serial) and optional result cache for memoization
// (null: none).  Measurements are cached under a "tune-cell" domain key
// derived from the same shared salt builder as the service cells, and every
// simulation runs profiled with the conservation check enforced.
//
// Per source (state resets when a call names another one) the evaluator
// lowers the DSL once and copies the lowered function for each candidate.
// analyze() keeps each compiled candidate until measure() takes it or the
// next analyze() drops it, so the held compiles never exceed one frontier.
// measure() looks each config up in the result cache, then in a program
// memo keyed by program_key() (twins within one batch included), and only
// then simulates.  A memo reuse is not a cache hit.  The registry counters
// "tune.compiles" and "tune.reused" count candidate compiles and the
// simulations the memo saved.
class LocalEvaluator : public Evaluator {
 public:
  explicit LocalEvaluator(engine::ThreadPool* pool = nullptr,
                          engine::ResultCache* cache = nullptr);

  std::vector<Analysis> analyze(const std::string& source, int issue,
                                const std::vector<TuneConfig>& cfgs) override;
  std::vector<Measurement> measure(const std::string& source, int issue,
                                   const std::vector<TuneConfig>& cfgs) override;

 private:
  // Resets the per-source state below unless it already belongs to `source`.
  void bind(const std::string& source);
  // The bound source compiled at `c`; thread-safe between bind() calls.
  [[nodiscard]] Expected<Function> compile(const MachineModel& m,
                                           const TuneConfig& c) const;

  engine::ThreadPool* pool_;
  engine::ResultCache* cache_;
  Workload workload_;  // the bound source, named for error messages
  std::optional<Expected<Function>> lowered_;  // unset until the first bind
  // analyze()'s compiled candidates by (order_key, issue).
  std::map<std::pair<std::uint64_t, int>, Function> held_;
  // program_key -> the measurement of that program.
  std::unordered_map<std::string, Measurement> memo_;
};

TuneResult autotune(const std::string& source, const TuneOptions& opts,
                    Evaluator& eval);
// Convenience overload running on a LocalEvaluator.
TuneResult autotune(const std::string& source, const TuneOptions& opts = {},
                    engine::ThreadPool* pool = nullptr,
                    engine::ResultCache* cache = nullptr);

// Fixed-subgrid pruning audit — the cost model's accountability contract.
//
// Evaluates `grid` twice over the same evaluator: once pruned (measure the
// five paper seeds, calibrate, simulate only the model-ranked top
// `sim_fraction` of the rest) and once exhaustively (measure everything —
// the ground truth; the shared cache makes the overlap free).  Because the
// ground truth covers the pruned-away set too, the audit reports exactly
// what pruning cost: whether the pruned pass still found the true best, and
// the precision of the pruned set (how many skipped configs were indeed not
// better than the found best).
struct PruningAudit {
  bool ok = false;
  std::string error;
  std::uint64_t exhaustive_best = 0;  // true min cycles over the whole grid
  std::uint64_t pruned_best = 0;      // min cycles over the simulated subset
  std::uint64_t grid_size = 0;
  std::uint64_t simulated = 0;  // seeds + model-ranked survivors
  std::uint64_t pruned = 0;     // configs never simulated by the pruned pass
  std::uint64_t true_negatives = 0;  // pruned configs with cycles >= pruned_best
  double model_mape = 0.0;

  [[nodiscard]] bool equal_best() const { return pruned_best == exhaustive_best; }
  [[nodiscard]] double pruned_fraction() const {
    return grid_size == 0 ? 0.0
                          : static_cast<double>(pruned) /
                                static_cast<double>(grid_size);
  }
  [[nodiscard]] double precision() const {
    return pruned == 0 ? 1.0
                       : static_cast<double>(true_negatives) /
                             static_cast<double>(pruned);
  }
};

// `grid` must contain the five paper seed configs (the calibration set); the
// default grid below does.  Only `opts.issue` and `opts.sim_fraction` apply.
PruningAudit audit_pruning(const std::string& source, const TuneOptions& opts,
                           const std::vector<TuneConfig>& grid, Evaluator& eval);

// The default audit sub-grid: every level x unroll {1,2,4,8,16}, list
// scheduler, no nest passes (25 configs, seeds included).
[[nodiscard]] std::vector<TuneConfig> default_audit_grid();

}  // namespace ilp::tune
