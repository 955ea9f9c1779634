// Per-span self time from a Chrome trace, the basis of the per-layer table.
//
// A span's self time is its duration minus the time its child spans on the
// same thread cover. Nesting is positional per thread (obs/trace.h): span A
// is B's parent iff A is the innermost span on B's thread whose interval
// contains B's. A span with no enclosing span on its thread, such as a
// snapshot chase on a pool worker, is a root and keeps its whole duration
// minus its own children.

#ifndef TDX_PERFBENCH_LAYERS_H_
#define TDX_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace tdx::perf {

struct Span {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Time per span name, summed over every occurrence on every thread.
struct SpanTime {
  std::uint64_t total_us = 0;  ///< inclusive durations
  std::uint64_t self_us = 0;   ///< durations minus same-thread children
  std::size_t count = 0;
};

using SpanTable = std::map<std::string, SpanTime, std::less<>>;

/// The complete ("ph":"X") events of a Tracer::ToChromeTraceJson document.
Result<std::vector<Span>> ParseChromeTrace(std::string_view json);

/// Aggregates `spans` (any order) into per-name totals and self times.
SpanTable AggregateSpans(std::vector<Span> spans);

/// Seconds of `name` in `table`, 0 when the span never occurred.
double SelfSeconds(const SpanTable& table, std::string_view name);
double TotalSeconds(const SpanTable& table, std::string_view name);

}  // namespace tdx::perf

#endif  // TDX_PERFBENCH_LAYERS_H_
