// Resource governance for the chase engines, and a fault-injection registry
// for testing their abort paths.
//
// The paper's engines — the per-snapshot chase (Proposition 4), norm(Ic,
// Phi+) with its Theta(n^2) worst case (Theorem 13), and the c-chase
// (Definition 16) — all terminate on well-formed input, but "terminates" is
// not a budget: adversarial normalization instances, egd fixpoint churn, and
// degenerate mappings can consume unbounded time and memory before they get
// there. Production callers need every engine to degrade into a structured,
// reportable outcome instead of an OOM or a hang.
//
// Two pieces live here:
//
//  * ChaseLimits + ResourceGuard — a budget (max tgd fires, egd steps, fresh
//    nulls, facts, normalization fragments, wall-clock deadline) and the
//    guard that engines consult before each unit of work. The guard keeps
//    no counts of its own: engines pass the count they already keep (their
//    ChaseStats, or a normalizer pass's fragment count) and the guard
//    compares it with the limit. A guard "trips" on the first exceeded
//    dimension and stays tripped; engines poll `ok()` at their loop heads
//    and unwind, surfacing ChaseResultKind::kAborted with partial stats and
//    the exhausted dimension. An admission is one integer compare whether
//    or not a limit is set (see bench_guard_overhead).
//
//  * TDX_FAULT_POINT / FaultRegistry — named sites in engine code that tests
//    can arm to force budget exhaustion, simulated allocation failure, or a
//    mid-phase abort. Unarmed cost is one relaxed atomic load; compiling
//    with TDX_DISABLE_FAULT_POINTS removes the sites entirely.
//
// Chase *failure* (no solution exists) remains a first-class outcome and is
// unrelated to this file; see the taxonomy note in common/status.h and
// docs/INTERNALS.md ("Resource governance & failure taxonomy").

#ifndef TDX_COMMON_RESOURCE_H_
#define TDX_COMMON_RESOURCE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace tdx {

/// Sentinel meaning "no limit" for the count-valued budget dimensions.
inline constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

/// Budget for one engine run. Default-constructed limits are all unlimited,
/// so `ChaseLimits{}` preserves the historical open-loop behavior.
struct ChaseLimits {
  std::size_t max_tgd_fires = kUnlimited;  ///< tgd firings (st + target)
  std::size_t max_egd_steps = kUnlimited;  ///< successful egd merge steps
  std::size_t max_fresh_nulls = kUnlimited;  ///< labeled/annotated nulls minted
  /// Facts tgd fires inserted (ChaseStats::facts_inserted); not a cap on the
  /// target's size, which fragmentation and egd merges also change.
  std::size_t max_facts = kUnlimited;
  /// Fragments emitted by one normalization pass.
  std::size_t max_normalize_fragments = kUnlimited;
  /// Wall-clock deadline for the whole engine run; nullopt = none.
  std::optional<std::chrono::milliseconds> deadline;
};

/// The budget dimension that tripped a guard.
enum class ResourceDimension {
  kNone = 0,
  kTgdFires,
  kEgdSteps,
  kFreshNulls,
  kFacts,
  kNormalizeFragments,
  kWallClock,
  kInjectedFault,  ///< tripped by an armed TDX_FAULT_POINT site
};

/// Stable human-readable token for a dimension ("tgd-fires", ...).
std::string_view ResourceDimensionToString(ResourceDimension dim);

/// The budget a run spent that its work record cannot hold: monotonic
/// elapsed wall time. A checkpoint stores the ledger of the interrupted
/// run; seeding a new guard with it makes the resumed run's deadline the
/// *remaining* allowance instead of a reset one. (The count budgets need no
/// ledger: a resumed run restores its ChaseStats, and the guard admits
/// against those.)
struct ResourceLedger {
  /// Wall time consumed, measured on std::chrono::steady_clock so system
  /// clock jumps can neither spuriously trip nor indefinitely extend a
  /// deadline.
  std::chrono::milliseconds elapsed{0};
};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Process-wide registry of armed fault points. Engines declare sites with
/// TDX_FAULT_POINT("engine/site") or ResourceGuard::PokeFault; tests arm a
/// site (optionally after skipping the first `skip_count` hits) and the site
/// then yields the armed Status. The registry is for tests: arming is
/// mutex-protected, but the unarmed fast path is a single relaxed atomic
/// load so production code pays nothing measurable.
class FaultRegistry {
 public:
  /// Arms `site` to fire `status` once, after `skip_count` prior hits pass
  /// through. Re-arming a site replaces its previous spec.
  static void Arm(std::string_view site, Status status,
                  std::size_t skip_count = 0);
  /// Disarms one site (no-op if not armed).
  static void Disarm(std::string_view site);
  /// Disarms everything; call from test teardown.
  static void DisarmAll();
  /// Number of times `site` was hit (armed or not) since the last DisarmAll.
  /// Counted only while at least one site is armed, so production runs do
  /// not pay for bookkeeping.
  static std::size_t HitCount(std::string_view site);

  /// True iff any site is armed. Single relaxed atomic load.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Slow path: consults the registry for `site`; returns the armed Status
  /// (consuming the arm) or OK. Callers must check AnyArmed() first.
  static Status Fire(std::string_view site);

 private:
  static std::atomic<std::size_t> armed_count_;
};

/// Every named fault site compiled into the engines, for harnesses that
/// sweep the whole surface (tests/chaos_resume_test.cc and the CI
/// chaos-resume job, which extracts the quoted names below). Keep in sync
/// when adding a TDX_FAULT_POINT, PokeFault, or FaultRegistry::Fire call
/// site, one quoted name per line.
inline constexpr std::string_view kRegisteredFaultSites[] = {
    "parser/statement",
    "chase/tgd-phase",
    "chase/egd-fixpoint",
    "cchase/normalize-source",
    "cchase/tgd-phase",
    "cchase/normalize-target",
    "cchase/egd-fixpoint",
    "normalize/naive",
    "normalize/algorithm1",
    "normalize/incremental",
    "naive-eval/normalize",
    "thread-pool/dispatch",
};

/// RAII arm/disarm for tests: the fault is disarmed when the scope exits.
class ScopedFault {
 public:
  ScopedFault(std::string_view site, Status status, std::size_t skip_count = 0)
      : site_(site) {
    FaultRegistry::Arm(site_, std::move(status), skip_count);
  }
  ~ScopedFault() { FaultRegistry::Disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

#ifdef TDX_DISABLE_FAULT_POINTS
/// Fault points compiled out: zero cost, zero code.
#define TDX_FAULT_POINT(site) ((void)0)
#else
/// Declares a named fault site in a function returning Status or Result<T>.
/// When a test armed the site, the armed Status is returned from the
/// enclosing function; otherwise this is one relaxed atomic load.
#define TDX_FAULT_POINT(site)                                       \
  do {                                                              \
    if (::tdx::FaultRegistry::AnyArmed()) {                         \
      ::tdx::Status _tdx_fault = ::tdx::FaultRegistry::Fire(site);  \
      if (!_tdx_fault.ok()) return _tdx_fault;                      \
    }                                                               \
  } while (false)
#endif

// ---------------------------------------------------------------------------
// ResourceGuard
// ---------------------------------------------------------------------------

/// Budget check threaded through one engine run. Not thread-safe (each
/// engine run owns its guard). Every admission returns true while within
/// budget; the first violation trips the guard, records the dimension, and
/// every later admission returns false, so engines can poll cheaply at loop
/// heads and unwind without extra state.
class ResourceGuard {
 public:
  /// Unlimited guard; every admission succeeds.
  ResourceGuard() : ResourceGuard(ChaseLimits{}) {}

  explicit ResourceGuard(const ChaseLimits& limits)
      : ResourceGuard(limits, ResourceLedger{}) {}

  /// Resume constructor: the guard starts with `consumed` already spent, so
  /// only the remaining wall time is available. If the prior run already
  /// spent the whole deadline, the guard starts tripped and the first poll
  /// aborts the engine. Deadline arithmetic saturates: a negative prior
  /// consumption counts as none, and a deadline beyond what the steady
  /// clock can represent from now lands on its last representable instant
  /// instead of overflowing.
  ResourceGuard(const ChaseLimits& limits, const ResourceLedger& consumed)
      : limits_(limits),
        start_(std::chrono::steady_clock::now()),
        prior_elapsed_(
            std::max(consumed.elapsed, std::chrono::milliseconds::zero())) {
    if (limits_.deadline.has_value()) {
      if (prior_elapsed_ >= *limits_.deadline) {
        Trip(ResourceDimension::kWallClock,
             "wall-clock deadline of " +
                 std::to_string(limits_.deadline->count()) +
                 "ms already consumed before resume");
      } else {
        // Both operands are non-negative here, so the difference cannot
        // overflow; the clamp keeps the conversion to clock ticks in range.
        const auto headroom = std::chrono::floor<std::chrono::milliseconds>(
            std::chrono::steady_clock::time_point::max() - start_);
        deadline_ = start_ + std::min(*limits_.deadline - prior_elapsed_,
                                      headroom);
      }
    }
  }

  /// Wall time spent so far, for checkpointing: prior consumption plus this
  /// guard's lifetime on the steady clock. Successive snapshots are
  /// monotonically non-decreasing (asserted — steady_clock is monotonic by
  /// contract).
  ResourceLedger Consumed() const {
    const auto now = std::chrono::steady_clock::now();
    assert(now >= start_ && "steady_clock went backwards");
    const auto run =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_);
    ResourceLedger ledger;
    ledger.elapsed = prior_elapsed_ > std::chrono::milliseconds::max() - run
                         ? std::chrono::milliseconds::max()
                         : prior_elapsed_ + run;
    return ledger;
  }

  /// True while no dimension has been exceeded and no fault injected.
  bool ok() const { return dimension_ == ResourceDimension::kNone; }
  bool tripped() const { return !ok(); }
  ResourceDimension dimension() const { return dimension_; }

  /// The abort as a Status: kResourceExhausted for count budgets and
  /// injected faults, kDeadlineExceeded for the wall clock. OK if not
  /// tripped.
  Status ToStatus() const;

  /// Human-readable abort reason ("tgd fire budget of 10 exhausted", ...).
  /// Empty if not tripped.
  const std::string& reason() const { return reason_; }

  // ---- admission ---------------------------------------------------------
  // Engines pass the run's count of the dimension *including* the work
  // about to be done (or just done, for facts): ChaseStats::tgd_fires + 1
  // before a fire, and so on. The guard admits it while it stays within
  // the limit. A tripped guard admits nothing.

  bool AdmitTgdFires(std::size_t total) {
    return Admit(total, limits_.max_tgd_fires, ResourceDimension::kTgdFires);
  }
  bool AdmitEgdSteps(std::size_t total) {
    return Admit(total, limits_.max_egd_steps, ResourceDimension::kEgdSteps);
  }
  bool AdmitFreshNulls(std::size_t total) {
    return Admit(total, limits_.max_fresh_nulls,
                 ResourceDimension::kFreshNulls);
  }
  bool AdmitFacts(std::size_t total) {
    return Admit(total, limits_.max_facts, ResourceDimension::kFacts);
  }
  /// `pass_total` counts the current normalization pass only: the fragment
  /// budget is per pass.
  bool AdmitFragments(std::size_t pass_total) {
    return Admit(pass_total, limits_.max_normalize_fragments,
                 ResourceDimension::kNormalizeFragments);
  }

  /// Polls the wall-clock deadline. The clock is read only once per
  /// `kDeadlineStride` calls (reading it dominates the cost otherwise);
  /// engines call this at loop heads, so the slack is a few iterations.
  bool CheckDeadline() {
    if (!deadline_.has_value()) return ok();
    if (tripped()) return false;
    if (deadline_poll_++ % kDeadlineStride != 0) return true;
    if (std::chrono::steady_clock::now() >= *deadline_) {
      Trip(ResourceDimension::kWallClock,
           "wall-clock deadline of " +
               std::to_string(limits_.deadline->count()) + "ms exceeded");
      return false;
    }
    return true;
  }

  /// Fault-injection variant for engine interiors that cannot return a
  /// Status directly: when the named site is armed, the guard trips with
  /// the armed fault and the engine's normal abort unwinding takes over.
  /// Unarmed cost: one relaxed atomic load.
  bool PokeFault(std::string_view site) {
#ifndef TDX_DISABLE_FAULT_POINTS
    if (FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Fire(site);
      if (!fault.ok()) {
        Trip(ResourceDimension::kInjectedFault, fault.ToString());
        return false;
      }
    }
#else
    (void)site;
#endif
    return ok();
  }

 private:
  static constexpr std::size_t kDeadlineStride = 256;

  bool Admit(std::size_t total, std::size_t limit, ResourceDimension dim) {
    if (tripped()) return false;
    if (total > limit) {
      Trip(dim, std::string(ResourceDimensionToString(dim)) + " budget of " +
                    std::to_string(limit) + " exhausted");
      return false;
    }
    return true;
  }

  /// Out of line: records the trip in the process metrics (guard.trips and
  /// guard.trips.<dimension>) besides latching the abort state.
  void Trip(ResourceDimension dim, std::string reason);

  ChaseLimits limits_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::milliseconds prior_elapsed_{0};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::size_t deadline_poll_ = 0;

  ResourceDimension dimension_ = ResourceDimension::kNone;
  std::string reason_;
};

}  // namespace tdx

#endif  // TDX_COMMON_RESOURCE_H_
