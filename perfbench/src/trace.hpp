// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the program (no tracing lives inside src/).  Every span carries
// the id of the op it belongs to and the index of the span that caused it;
// the root span of an op is the op itself.  A span's self time is its
// duration minus the time its children cover, so over one op
//
//   sum(self of every non-root span) + self(root) == wall(op)
//
// and self(root) is reported as the op's `unattributed` time: the part of
// the op no layer span accounts for.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns();

struct Span {
  const char* name = "";  // string literal: layer name
  std::uint64_t op = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  std::int32_t open(const char* name, std::uint64_t op, std::int32_t parent);
  void close(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }
  // A span whose interval was measured elsewhere (e.g. from the program's own
  // pass timers); it must lie inside its parent.
  std::int32_t add(const char* name, std::uint64_t op, std::int32_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer name summed over every op; roots contribute under
  // "unattributed".  `op_wall_ns` is the summed wall time of all roots.
  struct Accounting {
    std::map<std::string, double> self_ns;
    double op_wall_ns = 0.0;
    std::uint64_t ops = 0;
    // Summed duration per span name (not self): mean call cost of a layer.
    std::map<std::string, double> total_ns;
    std::map<std::string, std::uint64_t> calls;
  };
  [[nodiscard]] Accounting account() const;

  // Chrome trace-event JSON (one complete event per span, tid = op id).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// RAII span; a null tracer records nothing, so untraced code paths share
// the traced ones at the cost of one branch.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name, std::uint64_t op, std::int32_t parent)
      : t_(t), idx_(t != nullptr ? t->open(name, op, parent) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::int32_t index() const { return idx_; }

 private:
  Tracer* t_;
  std::int32_t idx_;
};

}  // namespace perfbench
