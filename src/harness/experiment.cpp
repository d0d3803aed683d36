#include "harness/experiment.hpp"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <thread>

#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "engine/trace.hpp"
#include "frontend/compile.hpp"
#include "harness/cache_key.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ilp {

Expected<Function> try_lower_workload(const Workload& w) {
  DiagnosticEngine diags;
  auto r = dsl::compile(w.source, diags);
  if (!r)
    return Error{strformat("workload '%s' failed to compile: %s", w.name.c_str(),
                           diags.to_string().c_str())};
  return std::move(r->fn);
}

Expected<Function> try_compile_lowered(Function fn, const Workload& w, OptLevel level,
                                       const MachineModel& m, const CompileOptions& opts,
                                       TransformStats* stats) {
  try {
    compile_with_transforms(fn, TransformSet::for_level(level), m, opts, stats);
  } catch (const std::exception& e) {
    return Error{strformat("workload '%s' failed at %s: %s", w.name.c_str(),
                           level_name(level), e.what())};
  }
  return fn;
}

Expected<CompiledLoop> try_compile_workload(const Workload& w, OptLevel level,
                                            const MachineModel& m,
                                            const CompileOptions& opts,
                                            TransformStats* stats) {
  auto lowered = try_lower_workload(w);
  if (!lowered) return Error{lowered.error_message()};
  auto compiled = try_compile_lowered(std::move(*lowered), w, level, m, opts, stats);
  if (!compiled) return Error{compiled.error_message()};
  CompiledLoop out;
  out.fn = std::move(*compiled);
  out.regs = measure_register_usage(out.fn);
  return out;
}

Expected<std::uint64_t> try_simulate_cycles(const Function& fn, const MachineModel& m) {
  engine::ScopedTimer timer("pass.simulate");
  const RunOutcome out = run_seeded(fn, m);
  if (!out.result.ok) return Error{"simulation failed: " + out.result.error};
  return out.result.cycles;
}

Expected<ProfiledSim> try_simulate_profile(const Function& fn, const MachineModel& m) {
  engine::ScopedTimer timer("pass.simulate");
  ProfiledSim out;
  SimOptions opts;
  opts.profile = &out.profile;
  RunOutcome run = run_seeded(fn, m, std::move(opts));
  if (!run.result.ok) return Error{"simulation failed: " + run.result.error};
  out.result = std::move(run.result);
  return out;
}

CompiledLoop compile_workload(const Workload& w, OptLevel level, const MachineModel& m,
                              const CompileOptions& opts) {
  auto r = try_compile_workload(w, level, m, opts);
  ILP_ASSERT(r.has_value(), r.error_message().c_str());
  return std::move(*r);
}

std::uint64_t simulate_cycles(const Function& fn, const MachineModel& m) {
  auto r = try_simulate_cycles(fn, m);
  ILP_ASSERT(r.has_value(), r.error_message().c_str());
  return *r;
}

std::uint64_t study_cell_key(const Workload& w, OptLevel level, const MachineModel& m,
                             const CompileOptions& opts) {
  engine::HashStream h;
  hash_domain_salt(h, "ilp92-cell");  // shared version: see harness/cache_key.hpp
  h.str(w.source);
  h.i32(static_cast<int>(level));
  hash_machine_model(h, m);
  hash_compile_options(h, opts);
  return h.digest();
}

namespace {

// One (loop, level, width) cell of the sweep, in cacheable form.
struct CellResult {
  std::uint64_t cycles = 0;
  RegUsage regs{};
  std::string error;
};

std::string encode_cell(const CellResult& c) {
  if (!c.error.empty()) return "v1 err " + c.error;
  return strformat("v1 ok %" PRIu64 " %d %d", c.cycles, c.regs.int_regs, c.regs.fp_regs);
}

bool decode_cell(const std::string& payload, CellResult& out) {
  if (payload.rfind("v1 err ", 0) == 0) {
    out = CellResult{};
    out.error = payload.substr(7);
    return true;
  }
  CellResult c;
  if (std::sscanf(payload.c_str(), "v1 ok %" SCNu64 " %d %d", &c.cycles,
                  &c.regs.int_regs, &c.regs.fp_regs) == 3) {
    out = c;
    return true;
  }
  return false;  // unknown schema (stale disk entry): treat as miss
}

CellResult compute_cell(const Workload& w, OptLevel level, const MachineModel& m,
                        const CompileOptions& opts) {
  CellResult c;
  auto compiled = try_compile_workload(w, level, m, opts);
  if (!compiled) {
    c.error = compiled.error_message();
    return c;
  }
  c.regs = compiled->regs;
  auto cycles = try_simulate_cycles(compiled->fn, m);
  if (!cycles) {
    c.error = strformat("workload '%s' at %s issue-%d: %s", w.name.c_str(),
                        level_name(level), m.issue_width, cycles.error_message().c_str());
    return c;
  }
  c.cycles = *cycles;
  return c;
}

CellResult run_cell(const Workload& w, OptLevel level, int width,
                    const CompileOptions& copts, engine::ResultCache* cache) {
  const MachineModel m = MachineModel::issue(width);
  engine::TraceScope trace(
      strformat("%s/%s/w%d", w.name.c_str(), level_name(level), width), "cell");
  std::uint64_t key = 0;
  if (cache != nullptr) {
    key = study_cell_key(w, level, m, copts);
    if (auto payload = cache->lookup(key)) {
      CellResult c;
      if (decode_cell(*payload, c)) return c;
      cache->invalidate(key);  // stale/corrupted entry: recompute and rewrite
    }
  }
  engine::ScopedTimer timer("study.cell");
  CellResult c = compute_cell(w, level, m, copts);
  if (cache != nullptr) cache->store(key, encode_cell(c));
  return c;
}

}  // namespace

StudyResult run_study(const std::vector<Workload>& workloads, const StudyOptions& opts) {
  engine::Stopwatch wall;

  std::unique_ptr<engine::ResultCache> owned_cache;
  engine::ResultCache* cache = opts.cache;
  if (cache == nullptr && !opts.cache_dir.empty()) {
    owned_cache = std::make_unique<engine::ResultCache>(opts.cache_dir);
    cache = owned_cache.get();
  }
  const engine::CacheStats cache_before = cache ? cache->stats() : engine::CacheStats{};

  constexpr std::size_t kCellsPerLoop = kLevels.size() * kIssueWidths.size();
  std::vector<CellResult> cells(workloads.size() * kCellsPerLoop);
  auto cell_index = [&](std::size_t loop_i, std::size_t li, std::size_t wi) {
    return loop_i * kCellsPerLoop + li * kIssueWidths.size() + wi;
  };

  int jobs = opts.jobs;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;

  StudyResult res;
  res.stats.jobs = jobs;

  if (jobs == 1) {
    for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i)
      for (std::size_t li = 0; li < kLevels.size(); ++li)
        for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
          cells[cell_index(loop_i, li, wi)] =
              run_cell(workloads[loop_i], kLevels[li], kIssueWidths[wi], opts.compile,
                       cache);
  } else {
    engine::ThreadPool pool(static_cast<unsigned>(jobs));
    std::vector<std::future<CellResult>> futures;
    futures.reserve(cells.size());
    for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i)
      for (std::size_t li = 0; li < kLevels.size(); ++li)
        for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
          const Workload& w = workloads[loop_i];
          const OptLevel level = kLevels[li];
          const int width = kIssueWidths[wi];
          futures.push_back(pool.submit([&w, level, width, &opts, cache] {
            return run_cell(w, level, width, opts.compile, cache);
          }));
        }
    // Collect by submission index — never by completion order — so parallel
    // aggregation is byte-identical to serial.  A job that escaped with an
    // exception fails its cell only.
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        cells[i] = futures[i].get();
      } catch (const std::exception& e) {
        cells[i].error = strformat("study job threw: %s", e.what());
      }
    }
    res.stats.peak_queue_depth = pool.peak_queue_depth();
  }

  for (std::size_t loop_i = 0; loop_i < workloads.size(); ++loop_i) {
    const Workload& w = workloads[loop_i];
    LoopStudy ls;
    ls.name = w.name;
    ls.group = w.group;
    ls.type = w.type;
    ls.conds = w.conds;
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi) {
        const CellResult& c = cells[cell_index(loop_i, li, wi)];
        if (!c.error.empty()) {
          ++res.stats.failed_cells;
          if (ls.error.empty()) ls.error = c.error;
          continue;
        }
        ls.cycles[li][wi] = c.cycles;
        if (kIssueWidths[wi] == 8) ls.regs[li] = c.regs;
      }
    }
    if (opts.verbose) {
      if (ls.ok())
        std::fprintf(stderr, "  %-12s base=%llu lev4@8=%llu\n", ls.name.c_str(),
                     static_cast<unsigned long long>(ls.base_cycles()),
                     static_cast<unsigned long long>(ls.cycles[4][3]));
      else
        std::fprintf(stderr, "  %-12s FAILED: %s\n", ls.name.c_str(), ls.error.c_str());
    }
    res.loops.push_back(std::move(ls));
  }

  res.stats.cells = cells.size();
  if (cache != nullptr) {
    const engine::CacheStats after = cache->stats();
    res.stats.cache_hits = after.hits - cache_before.hits;
    res.stats.cache_disk_hits = after.disk_hits - cache_before.disk_hits;
    res.stats.cache_misses = after.misses - cache_before.misses;
    res.stats.cache_invalid = after.invalid - cache_before.invalid;
  } else {
    res.stats.cache_misses = cells.size();
  }
  res.stats.wall_seconds = wall.seconds();
  return res;
}

StudyResult run_study(const StudyOptions& opts) { return run_study(workload_suite(), opts); }

double StudyResult::mean_speedup(OptLevel level, int width_index) const {
  if (loops.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& l : loops) sum += l.speedup(level, width_index);
  return sum / static_cast<double>(loops.size());
}

double StudyResult::mean_speedup_where(OptLevel level, int width_index,
                                       bool doall_only) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& l : loops) {
    const bool is_doall = l.type == dsl::LoopType::DoAll;
    if (is_doall != doall_only) continue;
    sum += l.speedup(level, width_index);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

double StudyResult::mean_registers(OptLevel level) const {
  if (loops.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& l : loops)
    sum += l.regs[static_cast<std::size_t>(level)].total();
  return sum / static_cast<double>(loops.size());
}

std::string StudyResult::to_json() const {
  std::string out;
  out.reserve(4096 + loops.size() * 1024);
  out += "{\n  \"schema\": \"ilp92-study-v1\",\n  \"issue_widths\": [1, 2, 4, 8],\n";
  out += "  \"levels\": [\"Conv\", \"Lev1\", \"Lev2\", \"Lev3\", \"Lev4\"],\n";
  out += "  \"loops\": [\n";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopStudy& l = loops[i];
    out += strformat("    {\"name\": \"%s\", \"group\": \"%s\", \"type\": \"%s\", "
                     "\"conds\": %s,\n",
                     json_escape(l.name).c_str(), json_escape(l.group).c_str(),
                     dsl::loop_type_name(l.type), l.conds ? "true" : "false");
    out += strformat("     \"error\": \"%s\",\n", json_escape(l.error).c_str());
    out += "     \"cycles\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      out += li == 0 ? "[" : ", [";
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
        out += strformat("%s%llu", wi == 0 ? "" : ", ",
                         static_cast<unsigned long long>(l.cycles[li][wi]));
      out += "]";
    }
    out += "],\n     \"registers\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li)
      out += strformat("%s{\"int\": %d, \"fp\": %d}", li == 0 ? "" : ", ",
                       l.regs[li].int_regs, l.regs[li].fp_regs);
    out += "],\n     \"speedups\": [";
    for (std::size_t li = 0; li < kLevels.size(); ++li) {
      out += li == 0 ? "[" : ", [";
      for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
        out += strformat("%s%.6f", wi == 0 ? "" : ", ",
                         l.speedup(kLevels[li], static_cast<int>(wi)));
      out += "]";
    }
    out += strformat("]}%s\n", i + 1 < loops.size() ? "," : "");
  }
  out += "  ],\n  \"mean_speedup\": [";
  for (std::size_t li = 0; li < kLevels.size(); ++li) {
    out += li == 0 ? "[" : ", [";
    for (std::size_t wi = 0; wi < kIssueWidths.size(); ++wi)
      out += strformat("%s%.6f", wi == 0 ? "" : ", ",
                       mean_speedup(kLevels[li], static_cast<int>(wi)));
    out += "]";
  }
  out += "],\n  \"mean_registers\": [";
  for (std::size_t li = 0; li < kLevels.size(); ++li)
    out += strformat("%s%.6f", li == 0 ? "" : ", ", mean_registers(kLevels[li]));
  out += "]\n}\n";
  return out;
}

std::string StudyResult::telemetry_json() const {
  std::string out = "{\n";
  out += strformat(
      "  \"cells\": %llu,\n  \"failed_cells\": %llu,\n  \"jobs\": %d,\n"
      "  \"peak_queue_depth\": %llu,\n  \"wall_seconds\": %.6f,\n"
      "  \"cache\": {\"hits\": %llu, \"disk_hits\": %llu, \"misses\": %llu, "
      "\"invalid\": %llu, \"hit_rate\": %.4f},\n",
      static_cast<unsigned long long>(stats.cells),
      static_cast<unsigned long long>(stats.failed_cells), stats.jobs,
      static_cast<unsigned long long>(stats.peak_queue_depth), stats.wall_seconds,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_disk_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_invalid), stats.cache_hit_rate());
  out += "  \"passes\": " + engine::MetricsRegistry::global().to_json(2) + "\n}\n";
  return out;
}

}  // namespace ilp
