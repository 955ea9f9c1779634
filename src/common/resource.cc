#include "src/common/resource.h"

#include <mutex>
#include <unordered_map>

#include "src/obs/metrics.h"

namespace tdx {

std::string_view ResourceDimensionToString(ResourceDimension dim) {
  switch (dim) {
    case ResourceDimension::kNone:
      return "none";
    case ResourceDimension::kTgdFires:
      return "tgd-fires";
    case ResourceDimension::kEgdSteps:
      return "egd-steps";
    case ResourceDimension::kFreshNulls:
      return "fresh-nulls";
    case ResourceDimension::kFacts:
      return "facts";
    case ResourceDimension::kNormalizeFragments:
      return "normalize-fragments";
    case ResourceDimension::kWallClock:
      return "wall-clock";
    case ResourceDimension::kInjectedFault:
      return "injected-fault";
  }
  return "?";
}

namespace {

/// Trip counters, one per dimension plus a total. Indexed by the enum so a
/// trip costs two uncontended adds on an already-cold path.
struct TripMetrics {
  obs::Counter total{"guard.trips"};
  obs::Counter by_dim[8] = {
      obs::Counter("guard.trips.none"),
      obs::Counter("guard.trips.tgd_fires"),
      obs::Counter("guard.trips.egd_steps"),
      obs::Counter("guard.trips.fresh_nulls"),
      obs::Counter("guard.trips.facts"),
      obs::Counter("guard.trips.normalize_fragments"),
      obs::Counter("guard.trips.wall_clock"),
      obs::Counter("guard.trips.injected_fault"),
  };
};

TripMetrics& GetTripMetrics() {
  static auto* metrics = new TripMetrics();
  return *metrics;
}

}  // namespace

void ResourceGuard::Trip(ResourceDimension dim, std::string reason) {
  dimension_ = dim;
  reason_ = std::move(reason);
  TripMetrics& metrics = GetTripMetrics();
  metrics.total.Inc();
  const auto index = static_cast<std::size_t>(dim);
  if (index < 8) metrics.by_dim[index].Inc();
}

Status ResourceGuard::ToStatus() const {
  switch (dimension_) {
    case ResourceDimension::kNone:
      return Status::OK();
    case ResourceDimension::kWallClock:
      return Status::DeadlineExceeded(reason_);
    default:
      return Status::ResourceExhausted(reason_);
  }
}

// ---------------------------------------------------------------------------
// FaultRegistry
// ---------------------------------------------------------------------------

namespace {

struct FaultSpec {
  Status status;
  std::size_t skip_count = 0;  ///< hits to let pass before firing
  bool armed = false;          ///< false once fired or disarmed
  std::size_t hits = 0;        ///< total hits, armed or spent
};

/// Per-site trip counter ("fault.trip.<site>"), registered lazily the first
/// time a site fires. Fires are rare and already hold the registry mutex, so
/// the name build + metric registration is off every hot path.
std::uint32_t FaultTripMetricId(std::string_view site) {
  return obs::MetricsRegistry::Instance().Register(
      "fault.trip." + std::string(site), obs::MetricKind::kCounter);
}

struct RegistryState {
  std::mutex mu;
  std::unordered_map<std::string, FaultSpec> sites;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();  // leaked, never torn down
  return *state;
}

}  // namespace

std::atomic<std::size_t> FaultRegistry::armed_count_{0};

void FaultRegistry::Arm(std::string_view site, Status status,
                        std::size_t skip_count) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  FaultSpec& spec = state.sites[std::string(site)];
  if (!spec.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  spec.status = std::move(status);
  spec.skip_count = skip_count;
  spec.armed = true;
}

void FaultRegistry::Disarm(std::string_view site) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.sites.find(std::string(site));
  if (it == state.sites.end()) return;
  if (it->second.armed) armed_count_.fetch_sub(1, std::memory_order_relaxed);
  state.sites.erase(it);
}

void FaultRegistry::DisarmAll() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sites.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::size_t FaultRegistry::HitCount(std::string_view site) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.sites.find(std::string(site));
  return it == state.sites.end() ? 0 : it->second.hits;
}

Status FaultRegistry::Fire(std::string_view site) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.sites.find(std::string(site));
  if (it == state.sites.end()) return Status::OK();
  FaultSpec& spec = it->second;
  ++spec.hits;
  if (!spec.armed) return Status::OK();
  if (spec.skip_count > 0) {
    --spec.skip_count;
    return Status::OK();
  }
  spec.armed = false;  // fire once
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
  static obs::Counter fault_trips("fault.trips");
  fault_trips.Inc();
  obs::MetricsRegistry::Instance().Add(FaultTripMetricId(site), 1);
  return spec.status;
}

}  // namespace tdx
