#include "src/common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/common/resource.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdx {

namespace {

/// The thread-pool/dispatch fault site: when armed, the next dispatched
/// work item is silently dropped — a stand-in for a worker killed between
/// dequeue and execution. Callers that fan out through ParallelFor observe
/// an unfilled result slot and must turn it into a clean abort (see
/// temporal/abstract_chase.cc).
bool DispatchFaultDropsTask() {
#ifndef TDX_DISABLE_FAULT_POINTS
  if (FaultRegistry::AnyArmed()) {
    return !FaultRegistry::Fire("thread-pool/dispatch").ok();
  }
#endif
  return false;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

unsigned ThreadPool::HardwareJobs() {
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
    for (std::size_t i = 0; i < count; ++i) {
      if (DispatchFaultDropsTask()) continue;
      fn(i);
    }
    return;
  }
  obs::TraceSpan span("thread_pool.parallel_for");
  span.SetArg("tasks", count);
  jobs_metric.Set(jobs);
  ThreadPool pool(std::min<std::size_t>(jobs, count));
  for (std::size_t i = 0; i < count; ++i) {
    pool.Submit([&fn, i] {
      if (DispatchFaultDropsTask()) return;
      fn(i);
    });
  }
  pool.Wait();
}

}  // namespace tdx
