// Fan-out of independent work items across cores.
//
// The engine's data structures (Universe, Instance, ResourceGuard, the
// finders) are deliberately NOT thread-safe: parallel callers give every
// work item its own scratch state and merge results sequentially in a
// deterministic order afterwards (see core/certain.cc for the pattern).
// ParallelFor keeps no pool: each call starts its threads, they claim
// indexes from one atomic counter, and the call joins them.

#ifndef TDX_COMMON_THREAD_POOL_H_
#define TDX_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace tdx {

/// max(1, std::thread::hardware_concurrency()) — the default for a
/// "--jobs=0 means auto" flag.
unsigned HardwareJobs();

/// Runs fn(0..count-1). With jobs > 1 and count > 1 it starts
/// min(jobs, count) threads that claim the next index from a shared counter
/// and joins them before returning; the calling thread runs no item.
/// Otherwise it runs inline (no threads), so callers can unconditionally
/// route through this and let the flag decide. `fn` must be safe to call
/// concurrently for distinct indexes and must not throw.
void ParallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

}  // namespace tdx

#endif  // TDX_COMMON_THREAD_POOL_H_
