// The counter list of a work record: ChaseStats (relational/chase.h), the
// IndexStats it carries (relational/index.h) and NormalizeStats
// (core/normalize.h) each declare their counters once, in a static
// `ForEachCounter(f, records...)` that calls `f(spec, record.field...)` per
// counter, in `--stats` and checkpoint order, over any number of records
// (none reads only the specs). The `--stats` lines, the checkpoint's counter
// lines, the run metrics (relational/chase_run.h) and MergeCounters all
// iterate it, so adding a counter is one line in its record's list.

#ifndef TDX_COMMON_COUNTERS_H_
#define TDX_COMMON_COUNTERS_H_

#include <cstdint>

namespace tdx {

/// How a later record of the same run merges into an earlier one.
enum class CounterMerge : std::uint8_t {
  kSum,     ///< work done: added up
  kLast,    ///< a size: the later record's, unless the guard cut it short
  kAny,     ///< a flag: set once either record sets it
  kShared,  ///< derived afresh by every run: the later record's; never
            ///< checkpointed
};

struct CounterSpec {
  const char* label;   ///< the name `--stats` prints
  /// The metric under the run's prefix, or nullptr. A kSum counter
  /// publishes its growth over the run, any other its value as a gauge.
  const char* metric;
  CounterMerge merge;
};

/// Merges `later` into `into` as the list declares; `later_complete` is
/// false for a record the guard cut short.
template <class Record>
void MergeCounters(Record* into, const Record& later,
                   bool later_complete = true) {
  Record::ForEachCounter(
      [later_complete](const CounterSpec& spec, auto& total, auto value) {
        if (spec.merge == CounterMerge::kSum) {
          total += value;
        } else if (spec.merge == CounterMerge::kAny) {
          total = total || value;
        } else if (spec.merge == CounterMerge::kShared || later_complete) {
          total = value;
        }
      },
      *into, later);
}

}  // namespace tdx

#endif  // TDX_COMMON_COUNTERS_H_
