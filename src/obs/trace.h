// Scoped tracing in Chrome trace format ("trace event format" JSON, the
// schema chrome://tracing and Perfetto load natively).
//
// A Tracer is installed for one run (tdx_cli --trace-out=FILE installs one
// around the whole command); instrumentation sites open TDX_TRACE_SPAN
// scopes that record *complete* events ("ph":"X") — begin timestamp plus
// duration — so a trace can never contain an orphaned begin/end pair, even
// when a guard trip unwinds an engine mid-phase. Nesting is positional, as
// the format defines it: on one thread, span A encloses span B iff A's
// [ts, ts+dur) interval contains B's (obs_test verifies the engines emit
// strictly nested spans).
//
// Costs: with no tracer installed a span is one relaxed atomic load and a
// branch. With a tracer installed, a span is two steady_clock reads and one
// push_back into a thread-local event buffer (amortized allocation-free;
// buffers grow geometrically and are recycled across pool threads).
//
// Span names must be string literals (static storage duration): events keep
// only the pointer, which is what makes recording allocation-free.

#ifndef TDX_OBS_TRACE_H_
#define TDX_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace tdx::obs {

/// One recorded span: a Chrome-trace complete event.
struct TraceEvent {
  const char* name = "";     ///< static string literal
  std::uint64_t ts_us = 0;   ///< microseconds since the tracer's epoch
  std::uint64_t dur_us = 0;  ///< span duration in microseconds
  std::uint32_t tid = 0;     ///< dense per-tracer thread id
  const char* arg_name = nullptr;  ///< optional numeric argument
  std::uint64_t arg_value = 0;
};

/// Collects spans from every thread of one run. Install/uninstall from one
/// thread; recording is safe from any thread while installed.
class Tracer {
 public:
  // Implementation type, public so the file-local buffer machinery can name
  // it; not part of the caller-facing API.
  struct Impl;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer the process-wide current one. At most one tracer is
  /// installed at a time (asserted); spans opened while none is installed
  /// are no-ops.
  void Install();
  /// Anchors the trace epoch at OS process creation and records a
  /// "process.init" span covering fork/exec/loader time up to this call, so
  /// whole-process traces account for startup cost. Call at most once, before
  /// any span opens. No-op on platforms without a process start time.
  void MarkProcessStart();
  /// Detaches; pending spans already opened still record into this tracer.
  void Uninstall();

  /// The installed tracer, or nullptr. One relaxed atomic load.
  static Tracer* Current() {
    return current_.load(std::memory_order_relaxed);
  }

  /// Microseconds since this tracer's construction (its trace epoch).
  std::uint64_t NowMicros() const;

  /// Records one complete event (called by TraceSpan's destructor).
  void Record(const TraceEvent& event);

  /// Dense thread id for the calling thread, assigned on first use.
  std::uint32_t ThreadId();

  /// Events recorded so far (merged across threads, sorted by ts).
  std::size_t event_count() const;

  /// Serializes everything recorded so far as a Chrome-trace JSON document:
  /// {"traceEvents":[...], "displayTimeUnit":"ms"}. Events are sorted by
  /// (ts, -dur) so parents precede their children.
  std::string ToChromeTraceJson() const;
  /// Writes ToChromeTraceJson to `out`.
  void Write(std::ostream& out) const;

 private:
  Impl* impl_;  // owned; type-erased so the header stays light

  static std::atomic<Tracer*> current_;
};

/// RAII span. Opens against the tracer installed at construction time, so a
/// span that outlives an Uninstall still records consistently.
class TraceSpan {
 public:
  /// `name` must be a string literal.
  explicit TraceSpan(const char* name)
      : tracer_(Tracer::Current()), name_(name) {
    if (tracer_ == nullptr) return;
    // The thread id is claimed when the span opens: a thread's buffer (and
    // id) passes to another thread only once this one has exited, so a
    // span recorded under an id never overlaps one that an earlier owner
    // of the id recorded.
    tid_ = tracer_->ThreadId();
    start_us_ = tracer_->NowMicros();
  }
  ~TraceSpan() {
    if (tracer_ == nullptr) return;
    TraceEvent event;
    event.name = name_;
    event.ts_us = start_us_;
    event.dur_us = tracer_->NowMicros() - start_us_;
    event.tid = tid_;
    event.arg_name = arg_name_;
    event.arg_value = arg_value_;
    tracer_->Record(event);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches one numeric argument, rendered into the event's "args" map.
  /// `name` must be a string literal.
  void SetArg(const char* name, std::uint64_t value) {
    arg_name_ = name;
    arg_value_ = value;
  }

  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint32_t tid_ = 0;
  std::uint64_t start_us_ = 0;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_value_ = 0;
};

/// Stage memory probes. While enabled (tdx_cli enables them under
/// --trace-out or --metrics-out), ProbePeakRss reads the process's peak
/// resident set size (getrusage, in KiB) and records it as the span arg
/// `peak_rss_kb` of `span` and in the high-watermark gauge
/// `process.peak_rss_kb`. Called at the close of a few stages only (the
/// CLI's parse and run, the c-chase's source normalization and st phase),
/// never once per round. Disabled, a probe is one relaxed load.
void SetPeakRssProbes(bool enabled);
void ProbePeakRss(TraceSpan* span);

/// Installs `tracer` for the enclosing scope.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer) : tracer_(tracer) {
    tracer_->Install();
  }
  ~ScopedTracer() { tracer_->Uninstall(); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace tdx::obs

/// Token-pasting helper so two spans on one line get distinct names.
#define TDX_TRACE_CONCAT_INNER(a, b) a##b
#define TDX_TRACE_CONCAT(a, b) TDX_TRACE_CONCAT_INNER(a, b)

/// Opens a span for the rest of the enclosing scope. Free when no tracer is
/// installed.
#define TDX_TRACE_SPAN(name) \
  ::tdx::obs::TraceSpan TDX_TRACE_CONCAT(tdx_span_, __LINE__)(name)

#endif  // TDX_OBS_TRACE_H_
