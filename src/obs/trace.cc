#include "src/obs/trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#ifdef __linux__
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#endif

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace tdx::obs {

namespace {

std::atomic<bool> g_peak_rss_probes{false};

std::uint64_t SteadyNowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Microseconds since the OS created this process, or 0 when the platform
/// has no way to tell. On Linux, starttime (/proc/self/stat field 22, in
/// clock ticks) and CLOCK_BOOTTIME share the since-boot epoch, so their
/// difference is the process age — including fork/exec and dynamic-loader
/// time that no in-process clock read can otherwise observe. starttime has
/// USER_HZ (typically 10ms) granularity and always floors, so the raw
/// difference overestimates by up to one tick; the process's CPU time
/// (nanosecond resolution, and a lower bound on wall age while the process
/// is still single-threaded) caps it, making the result a conservative
/// estimate that never exceeds a tick above the truth.
std::uint64_t ProcessAgeMicros() {
#ifdef __linux__
  std::FILE* stat = std::fopen("/proc/self/stat", "re");
  if (stat == nullptr) return 0;
  char buf[1024];
  const std::size_t len = std::fread(buf, 1, sizeof buf - 1, stat);
  std::fclose(stat);
  buf[len] = '\0';
  // comm (field 2) may itself contain spaces and parens; every later field
  // is space-delimited after the *last* closing paren.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  int field = 2;
  unsigned long long start_ticks = 0;
  for (; *p != '\0'; ++p) {
    if (*p != ' ') continue;
    if (++field == 22) {
      start_ticks = std::strtoull(p + 1, nullptr, 10);
      break;
    }
  }
  if (field != 22) return 0;
  timespec now{};
  if (clock_gettime(CLOCK_BOOTTIME, &now) != 0) return 0;
  const long ticks_per_sec = sysconf(_SC_CLK_TCK);
  if (ticks_per_sec <= 0) return 0;
  const double start_us = static_cast<double>(start_ticks) * 1e6 /
                          static_cast<double>(ticks_per_sec);
  const double now_us = static_cast<double>(now.tv_sec) * 1e6 +
                        static_cast<double>(now.tv_nsec) / 1e3;
  if (now_us <= start_us) return 0;
  double age_us = now_us - start_us;
  timespec cpu{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu) == 0) {
    const double cpu_us = static_cast<double>(cpu.tv_sec) * 1e6 +
                          static_cast<double>(cpu.tv_nsec) / 1e3;
    if (cpu_us > 0 && cpu_us < age_us) age_us = cpu_us;
  }
  return static_cast<std::uint64_t>(age_us);
#else
  return 0;
#endif
}

}  // namespace

/// Per-thread event buffer. The owning thread appends without locking; the
/// global trace mutex guards buffer creation/recycling and the export-time
/// merge (export happens after the run, when worker threads have quiesced —
/// ParallelFor joins its threads before it returns).
struct TracerThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct Tracer::Impl {
  std::uint64_t generation = 0;  ///< unique per tracer, never reused
  std::uint64_t epoch_us = 0;
  std::vector<TracerThreadBuffer*> buffers;  // owned; guarded by trace mutex
  std::vector<TracerThreadBuffer*> free_buffers;

  ~Impl() {
    for (TracerThreadBuffer* buffer : buffers) delete buffer;
  }
};

namespace {

/// Leaked (FaultRegistry-style) so thread-exit lease destructors can always
/// consult it, even during static teardown. Maps live tracer generations to
/// their Impl; a lease whose generation is gone simply drops its pointer.
struct TraceGlobals {
  std::mutex mu;
  std::unordered_map<std::uint64_t, Tracer::Impl*> live;
  std::uint64_t next_generation = 1;
};

TraceGlobals& Globals() {
  static auto* globals = new TraceGlobals();
  return *globals;
}

/// The calling thread's buffer lease. Keyed by tracer generation — not by
/// Impl pointer — so a destroyed tracer (or a new one reusing its address)
/// can never be confused with the lease's owner. The destructor returns the
/// buffer to its tracer's free list so transient ParallelFor threads recycle
/// buffers instead of growing the set per batch.
struct BufferLease {
  std::uint64_t generation = 0;
  TracerThreadBuffer* buffer = nullptr;

  ~BufferLease() { Release(); }

  void Release() {
    if (buffer == nullptr) return;
    TraceGlobals& globals = Globals();
    std::lock_guard<std::mutex> lock(globals.mu);
    auto it = globals.live.find(generation);
    if (it != globals.live.end()) {
      it->second->free_buffers.push_back(buffer);
    }
    generation = 0;
    buffer = nullptr;
  }
};

thread_local BufferLease t_buffer_lease;

TracerThreadBuffer* BufferFor(Tracer::Impl* impl) {
  if (t_buffer_lease.generation == impl->generation) {
    return t_buffer_lease.buffer;
  }
  // Thread switched tracers (or first use): hand any old buffer back, then
  // claim one from this tracer.
  t_buffer_lease.Release();
  TraceGlobals& globals = Globals();
  std::lock_guard<std::mutex> lock(globals.mu);
  TracerThreadBuffer* buffer = nullptr;
  if (!impl->free_buffers.empty()) {
    buffer = impl->free_buffers.back();
    impl->free_buffers.pop_back();
  } else {
    buffer = new TracerThreadBuffer();
    buffer->tid = static_cast<std::uint32_t>(impl->buffers.size());
    buffer->events.reserve(256);
    impl->buffers.push_back(buffer);
  }
  t_buffer_lease.generation = impl->generation;
  t_buffer_lease.buffer = buffer;
  return buffer;
}

}  // namespace

std::atomic<Tracer*> Tracer::current_{nullptr};

Tracer::Tracer() : impl_(new Impl()) {
  TraceGlobals& globals = Globals();
  std::lock_guard<std::mutex> lock(globals.mu);
  impl_->generation = globals.next_generation++;
  impl_->epoch_us = SteadyNowMicros();
  globals.live.emplace(impl_->generation, impl_);
}

Tracer::~Tracer() {
  assert(Current() != this && "destroying an installed tracer");
  TraceGlobals& globals = Globals();
  {
    std::lock_guard<std::mutex> lock(globals.mu);
    globals.live.erase(impl_->generation);
  }
  delete impl_;
}

void Tracer::Install() {
  [[maybe_unused]] Tracer* const previous =
      current_.exchange(this, std::memory_order_relaxed);
  assert(previous == nullptr && "a tracer is already installed");
}

void Tracer::MarkProcessStart() {
  const std::uint64_t age_us = ProcessAgeMicros();
  if (age_us == 0) return;
  // Shifting the epoch back keeps every later span's ts positive relative to
  // process creation; unsigned wrap-around (if steady_clock's epoch is not
  // boot) still yields correct deltas in NowMicros.
  impl_->epoch_us -= age_us;
  TraceEvent event;
  event.name = "process.init";
  event.ts_us = 0;
  event.dur_us = age_us;
  event.tid = ThreadId();
  Record(event);
}

void Tracer::Uninstall() {
  current_.store(nullptr, std::memory_order_relaxed);
}

std::uint64_t Tracer::NowMicros() const {
  return SteadyNowMicros() - impl_->epoch_us;
}

std::uint32_t Tracer::ThreadId() {
  return BufferFor(impl_)->tid;
}

void Tracer::Record(const TraceEvent& event) {
  BufferFor(impl_)->events.push_back(event);
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(Globals().mu);
  std::size_t count = 0;
  for (const TracerThreadBuffer* buffer : impl_->buffers) {
    count += buffer->events.size();
  }
  return count;
}

std::string Tracer::ToChromeTraceJson() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(Globals().mu);
    for (const TracerThreadBuffer* buffer : impl_->buffers) {
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  // Sort (ts ascending, dur descending) so enclosing spans precede the
  // spans they contain — viewers build the nesting from this order.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return a.tid < b.tid;
            });

  Json trace_events = Json::Array();
  for (const TraceEvent& event : events) {
    Json e = Json::Object();
    e.Set("name", Json::Str(event.name));
    e.Set("ph", Json::Str("X"));
    e.Set("ts", Json::Uint(event.ts_us));
    e.Set("dur", Json::Uint(event.dur_us));
    e.Set("pid", Json::Int(1));
    e.Set("tid", Json::Uint(event.tid));
    if (event.arg_name != nullptr) {
      Json args = Json::Object();
      args.Set(event.arg_name, Json::Uint(event.arg_value));
      e.Set("args", std::move(args));
    }
    trace_events.Append(std::move(e));
  }
  Json root = Json::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", Json::Str("ms"));
  return root.Dump();
}

void Tracer::Write(std::ostream& out) const {
  out << ToChromeTraceJson() << '\n';
}

void SetPeakRssProbes(bool enabled) {
  g_peak_rss_probes.store(enabled, std::memory_order_relaxed);
}

void ProbePeakRss(TraceSpan* span) {
  if (!g_peak_rss_probes.load(std::memory_order_relaxed)) return;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  const auto kb = static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB
  span->SetArg("peak_rss_kb", kb);
  static Gauge gauge("process.peak_rss_kb");
  gauge.Set(kb);
}

}  // namespace tdx::obs
