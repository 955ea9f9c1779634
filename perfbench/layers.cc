#include "perfbench/layers.h"

#include <algorithm>

#include "src/obs/json.h"

namespace tdx::perf {

Result<std::vector<Span>> ParseChromeTrace(std::string_view json) {
  TDX_ASSIGN_OR_RETURN(obs::Json root, obs::ParseJson(json));
  const obs::Json* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("trace has no traceEvents array");
  }
  std::vector<Span> spans;
  for (const obs::Json& e : events->items()) {
    const obs::Json* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const obs::Json* name = e.Find("name");
    const obs::Json* ts = e.Find("ts");
    const obs::Json* dur = e.Find("dur");
    const obs::Json* tid = e.Find("tid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || dur == nullptr || !dur->is_number() ||
        tid == nullptr || !tid->is_number()) {
      return Status::InvalidArgument("malformed complete event in trace");
    }
    spans.push_back(Span{name->as_string(),
                         static_cast<std::uint64_t>(ts->as_int()),
                         static_cast<std::uint64_t>(dur->as_int()),
                         static_cast<std::uint32_t>(tid->as_int())});
  }
  return spans;
}

SpanTable AggregateSpans(std::vector<Span> spans) {
  // Per thread, parents sort before the spans they contain.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  SpanTable table;
  std::vector<const Span*> open;  // enclosing spans on the current thread
  for (const Span& span : spans) {
    const std::uint64_t end = span.ts_us + span.dur_us;
    while (!open.empty() &&
           (open.back()->tid != span.tid ||
            open.back()->ts_us + open.back()->dur_us < end)) {
      open.pop_back();
    }
    SpanTime& time = table[span.name];
    time.total_us += span.dur_us;
    time.self_us += span.dur_us;
    ++time.count;
    if (!open.empty()) table[open.back()->name].self_us -= span.dur_us;
    open.push_back(&span);
  }
  return table;
}

double SelfSeconds(const SpanTable& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.self_us / 1e6;
}

double TotalSeconds(const SpanTable& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.total_us / 1e6;
}

}  // namespace tdx::perf
