#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/common/resource.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

namespace {

/// The thread-pool/dispatch fault site: when armed, the next dispatched
/// work item is silently dropped — a stand-in for a worker killed between
/// claiming an item and running it. Callers that fan out through ParallelFor
/// observe an unfilled result slot and must turn it into a clean abort (see
/// core/certain.cc).
bool DispatchFaultDropsTask() {
#ifndef TDX_DISABLE_FAULT_POINTS
  if (FaultRegistry::AnyArmed()) {
    return !FaultRegistry::Fire("thread-pool/dispatch").ok();
  }
#endif
  return false;
}

void RunItem(const std::function<void(std::size_t)>& fn, std::size_t i) {
  if (!DispatchFaultDropsTask()) fn(i);
}

}  // namespace

unsigned HardwareJobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  // One batch span and two bulk counter adds per call — never per task, so
  // per-snapshot fan-outs pay nothing per item.
  static obs::Counter batches_metric("thread_pool.batches");
  static obs::Counter tasks_metric("thread_pool.tasks");
  static obs::Gauge jobs_metric("thread_pool.jobs");
  batches_metric.Inc();
  tasks_metric.Inc(count);
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) RunItem(fn, i);
    return;
  }
  obs::TraceSpan span("thread_pool.parallel_for");
  span.SetArg("tasks", count);
  jobs_metric.Set(jobs);
  std::atomic<std::size_t> next{0};
  const std::size_t threads = std::min<std::size_t>(jobs, count);
  // Joined on destruction, before the span closes, also when starting a
  // later thread throws.
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        RunItem(fn, i);
      }
    });
  }
}

}  // namespace tdx
