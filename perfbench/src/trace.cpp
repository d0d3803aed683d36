#include "trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin)
          .count());
}

std::int32_t Tracer::open(const char* name, std::uint64_t op, std::int32_t parent) {
  const std::uint64_t t = now_ns();
  return add(name, op, parent, t, t);
}

std::int32_t Tracer::add(const char* name, std::uint64_t op, std::int32_t parent,
                         std::uint64_t start_ns, std::uint64_t end_ns) {
  spans_.push_back(Span{name, op, parent, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

Tracer::Accounting Tracer::account() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  Accounting a;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    // Children are sequential and nested, so this is never negative beyond
    // clock rounding; clamp so one rounding error cannot go below zero.
    const double self = dur > child_ns[i] ? dur - child_ns[i] : 0.0;
    a.total_ns[s.name] += dur;
    ++a.calls[s.name];
    if (s.parent < 0) {
      a.self_ns["unattributed"] += self;
      a.op_wall_ns += dur;
      ++a.ops;
    } else {
      a.self_ns[s.name] += self;
    }
  }
  return a;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.op, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
