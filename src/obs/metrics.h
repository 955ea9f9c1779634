// Process-wide metrics for the chase engines: counters, high-watermark
// gauges, and exponential-bucket latency histograms.
//
// Design constraints, in order:
//
//  1. The hot path must not allocate and must not contend. Every thread
//     writes to its own shard — a flat array of relaxed atomics indexed by
//     metric id — so an increment is one thread-local load plus one
//     uncontended fetch_add. The acceptance bar (bench_obs_overhead) is
//     <=2% on BM_TransitiveClosureAblation with metrics enabled but never
//     read.
//  2. Reads must be deterministic. Snapshot() merges shards with
//     commutative reductions only (sum for counters and histogram buckets,
//     max for gauges), mirroring how the abstract chase sums its pieces'
//     IndexStats: the merged value is independent of thread scheduling
//     and shard order.
//     Gauges are therefore *high-watermark* gauges — Set records the max of
//     the observations, the only last-write-free semantics that stays
//     deterministic under parallel writers.
//  3. Engines must not need plumbing changes to be observable. The registry
//     is a process-wide singleton (like FaultRegistry); instrumentation
//     sites hold a static handle and increment through it.
//
// Metric names are dotted paths ("cchase.rounds", "checkpoint.save_us");
// the full registry lives in docs/INTERNALS.md ("Observability"). Handles
// registered with the same name share one metric.
//
// Shards are registry-owned and recycled: a thread that exits returns its
// shard to a free list for the next thread, so repeated ParallelFor batches
// do not grow the shard set without bound.

#ifndef TDX_OBS_METRICS_H_
#define TDX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tdx::obs {

/// Exponential histogram geometry: bucket 0 holds the value 0 and bucket
/// b (1 <= b < kHistogramBuckets-1) holds values in [2^(b-1), 2^b); the
/// last bucket is the overflow. 48 buckets cover nanosecond-scale samples
/// up to ~1.6 days.
inline constexpr std::size_t kHistogramBuckets = 48;

/// The bucket a sample lands in (exposed for obs_test's bucket math).
std::size_t HistogramBucketIndex(std::uint64_t value);
/// Exclusive upper bound of bucket `index` (0 -> 1, b -> 2^b); the overflow
/// bucket returns UINT64_MAX.
std::uint64_t HistogramBucketBound(std::size_t index);

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One merged metric in a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total or gauge high-watermark
  // Histogram fields (kind == kHistogram):
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries
};

/// A deterministic point-in-time merge of every shard, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(std::string_view name) const;
  /// Stable-schema JSON: {"version":1,"counters":{...},"gauges":{...},
  /// "histograms":{...}} with keys sorted; see docs/INTERNALS.md.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  // Implementation types, public so the registry's file-local state can name
  // them; not part of the caller-facing API.
  struct Shard;
  struct Descriptor;

  /// The process-wide registry.
  static MetricsRegistry& Instance();

  /// Registers (or finds) a metric; ids are dense and stable for the
  /// process lifetime. Mutex-protected — call once per site, not per event.
  std::uint32_t Register(std::string_view name, MetricKind kind);

  /// Collection on/off. Disabled increments are a relaxed load + branch.
  /// Enabled by default.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Hot-path writes. Allocation-free once the calling thread's shard has
  /// seen `id` (the first write per thread may grow the shard).
  void Add(std::uint32_t id, std::uint64_t delta);
  void SetMax(std::uint32_t id, std::uint64_t value);
  void Record(std::uint32_t id, std::uint64_t sample);

  /// Deterministic merge of all shards (live and recycled).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every shard slot (metric registrations survive). For tests and
  /// benchmark setup; not safe concurrently with writers.
  void Reset();

  /// Number of shards ever created (recycled shards count once); test hook.
  std::size_t shard_count() const;

 private:
  MetricsRegistry() = default;

  Shard* ShardSlow(std::uint32_t id);

  std::atomic<bool> enabled_{true};
};

/// A named counter handle. Construction registers (mutex); Inc is the
/// lock-free hot path. Typical use: function-local static.
class Counter {
 public:
  explicit Counter(std::string_view name);
  void Inc(std::uint64_t delta = 1) {
    MetricsRegistry::Instance().Add(id_, delta);
  }

 private:
  std::uint32_t id_;
};

/// A high-watermark gauge: Set keeps the maximum observation.
class Gauge {
 public:
  explicit Gauge(std::string_view name);
  void Set(std::uint64_t value) {
    MetricsRegistry::Instance().SetMax(id_, value);
  }

 private:
  std::uint32_t id_;
};

/// An exponential-bucket histogram.
class Histogram {
 public:
  explicit Histogram(std::string_view name);
  void Record(std::uint64_t sample) {
    MetricsRegistry::Instance().Record(id_, sample);
  }

 private:
  std::uint32_t id_;
};

/// RAII latency sample: records elapsed microseconds into a histogram and
/// optionally bumps a companion counter.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram, Counter* counter = nullptr);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  Counter* counter_;
  std::uint64_t start_ns_;
};

}  // namespace tdx::obs

#endif  // TDX_OBS_METRICS_H_
