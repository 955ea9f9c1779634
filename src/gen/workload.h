// Synthetic temporal workload generators.
//
// The paper evaluates its constructions on worked examples only; these
// generators provide parameterized families of the same shape for the
// benchmark harness and the randomized property tests:
//
//  * Employment histories — the paper's running example (Figures 1-9)
//    scaled up: people moving between companies with partially known
//    salary histories. Drives the c-chase, alignment, and query benches.
//  * Worst-case normalization — Theorem 13's O(n^2) bound: n facts with
//    pairwise-overlapping (nested) intervals all matched by one binary
//    conjunction, so every fact fragments at ~2n endpoints.
//  * Random instances — uniform random facts/intervals with a tunable
//    overlap profile, for fuzz-style property tests.
//
// Every workload owns its Universe and Schema; it is heap-allocated and
// pinned (instances hold pointers into the schema member).

#ifndef TDX_GEN_WORKLOAD_H_
#define TDX_GEN_WORKLOAD_H_

#include <memory>

#include "src/relational/dependency.h"
#include "src/temporal/concrete_instance.h"

namespace tdx {

/// A self-contained data exchange setting plus source instance.
struct Workload {
  Universe universe;
  Schema schema;
  Mapping mapping;  ///< non-temporal M
  Mapping lifted;   ///< M+
  ConcreteInstance source;

  Workload() : source(&schema) {}
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
};

struct EmploymentConfig {
  std::size_t num_people = 100;
  std::size_t num_companies = 10;
  /// Average number of consecutive employments per person.
  std::size_t avg_jobs = 3;
  /// Last finite time point used by generated intervals.
  TimePoint horizon = 100;
  /// Fraction of employment spans covered by salary facts (the rest become
  /// interval-annotated nulls in the chase result).
  double salary_known_fraction = 0.7;
  /// When true, some people get overlapping salary facts with different
  /// values for the same employment — the chase then fails on the egd.
  bool inject_conflict = false;
  std::uint64_t seed = 42;
};

/// The paper's Example 1/6 schema and mapping, with generated histories:
///   source E(name, company); source S(name, salary);
///   target Emp(name, company, salary);
///   tgd  sigma1: E(n, c) -> exists s: Emp(n, c, s)
///   tgd  sigma2: E(n, c) & S(n, s) -> Emp(n, c, s)
///   egd  e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2
std::unique_ptr<Workload> MakeEmploymentWorkload(const EmploymentConfig& cfg);

/// Theorem 13 worst case: source R(a) with n facts R(a_i) @ [i, 2n - i)
/// (nested, pairwise overlapping), and the mapping
///   tgd: R(x) & R(y) -> T(x, y)
/// whose lhs groups every pair; normalization fragments every fact at every
/// endpoint, giving Theta(n^2) output facts.
std::unique_ptr<Workload> MakeWorstCaseNormalizationWorkload(std::size_t n);

struct RandomConfig {
  std::size_t num_facts = 200;
  std::size_t num_names = 20;
  std::size_t num_companies = 5;
  std::size_t num_salaries = 8;
  TimePoint horizon = 50;
  /// Maximum interval length; longer means more overlap.
  TimePoint max_interval_length = 10;
  /// Probability that a generated interval is unbounded.
  double unbounded_probability = 0.05;
  std::uint64_t seed = 1;
};

/// Uniformly random E/S facts under the employment mapping. Useful as a
/// fuzzer: random instances exercise normalization grouping, egd merges,
/// and (with clashing salaries) chase failure paths.
std::unique_ptr<Workload> MakeRandomWorkload(const RandomConfig& cfg);

struct RandomMappingConfig {
  std::size_t max_source_relations = 3;
  std::size_t max_target_relations = 3;
  std::size_t max_arity = 3;
  std::size_t max_st_tgds = 4;
  std::size_t max_egds = 2;
  std::size_t num_facts = 15;
  std::size_t num_constants = 4;
  TimePoint horizon = 12;
  TimePoint max_interval_length = 6;
  std::uint64_t seed = 1;
};

/// Full-spectrum fuzzer: a RANDOM schema and a random (validated) mapping —
/// random atom shapes, variable sharing, existentials, and egds — plus
/// random facts. Used by the property tests to check Corollary 20 and
/// Theorem 21 beyond the employment shape. The generated mapping always
/// passes ValidateMapping.
std::unique_ptr<Workload> MakeRandomMappingWorkload(
    const RandomMappingConfig& cfg);

struct FlightConfig {
  std::size_t num_airports = 20;
  std::size_t num_flights = 60;
  TimePoint horizon = 40;
  TimePoint max_interval_length = 15;
  std::uint64_t seed = 9;
};

/// Random flight schedules under the reachability mapping
///   tgd  Flight(x, y) -> Reach(x, y)
///   ttgd Reach(x, y) & Reach(y, z) -> Reach(x, z)
/// Drives the target-tgd chase benchmarks: per-snapshot transitive
/// closure computed on the concrete view.
std::unique_ptr<Workload> MakeFlightWorkload(const FlightConfig& cfg);

struct ChainConfig {
  std::size_t hops = 64;        ///< edges in the chain (hops+1 airports)
  TimePoint horizon = 10;       ///< every edge is valid over [0, horizon)
};

/// A single co-valid chain ap0 -> ap1 -> ... -> ap<hops> under the LINEAR
/// reachability mapping
///   tgd  Flight(x, y) -> Edge(x, y)
///   tgd  Flight(x, y) -> Reach(x, y)
///   ttgd Reach(x, y) & Edge(y, z) -> Reach(x, z)
/// Unlike MakeFlightWorkload's doubling self-join, the linear rule extends
/// paths one edge at a time, so the closure takes `hops` chase rounds with
/// an O(hops) delta each: the rounds-heavy cascade that separates naive
/// re-enumeration (O(hops^3) triggers) from semi-naive (O(hops^2)).
std::unique_ptr<Workload> MakeChainWorkload(const ChainConfig& cfg);

struct StratifiedConfig {
  std::size_t hops = 48;   ///< edges in the chain (hops+1 nodes)
  TimePoint horizon = 10;  ///< every fact is valid over [0, horizon)
};

/// The chain closure extended into a multi-stratum pipeline for the chase
/// planner's ablation:
///   tgd  s1: Src(x, y) -> Edge(x, y)
///   tgd  s2: Src(x, y) -> Reach(x, y)
///   ttgd t1: Reach(x, y) & Edge(y, z) -> Reach(x, z)
///   ttgd t2: Reach(x, y) -> Audit(x, y, "ok")
///   egd  e1: Audit(x, y, s) & Audit(x, y, s2) -> s = s2
/// The only head writing Audit's status column pins it to the constant
/// "ok", so the planner proves e1 effect-free: the scheduled engine skips
/// the Audit self-join fixpoint (and the follow-up normalization pass)
/// that the flat engine re-runs to a no-op over the O(hops^2) closure.
std::unique_ptr<Workload> MakeStratifiedWorkload(const StratifiedConfig& cfg);

struct CascadeConfig {
  std::size_t stages = 12;        ///< egd-gated hops (outer c-chase loops)
  std::size_t ballast_keys = 150; ///< distinct B keys
  std::size_t ballast_dup = 4;    ///< co-valid distinct B facts per key
  TimePoint horizon = 8;          ///< chain/token facts valid over [0, horizon)
};

/// Multi-round normalization cascade for the incremental-normalization
/// ablation (core/normalize_incremental.h):
///   tgd  s1: SChain(x, y) -> Next(x, y)
///   tgd  s2: SSeed(x) -> Cur(x)
///   tgd  s3: STok(x, v) -> Token(x, v)
///   tgd  s4: SB(k, j) -> B(k, j, "w")
///   ttgd t1: Cur(x) & Next(x, y) -> exists s: Hop(y, s)
///   ttgd t2: Hop(y, v) & Token(y, v) -> Cur(y)
///   egd  e1: Hop(y, s) & Token(y, v) -> s = v
///   egd  eB: B(k, j, s) & B(k, j2, s2) -> s = s2
/// Each hop needs an egd merge to proceed: t1 mints Hop(n_i, N) with a
/// fresh null, t2 cannot fire until e1 merges N := "tok", so the chase runs
/// `stages` outer iterations, each with a post-rewrite normalization pass
/// (full, or incremental with the rewritten Hop row as its one dirty row)
/// and a post-rounds pass over a ~2-fact delta. The B relation is
/// ballast: eB is provably effect-free (s4 pins the tag column to "w"), so
/// it never fires — but its lhs stays in the normalizer's conjunction set,
/// and eB's key-only join makes every full pass sweep ballast_dup^2
/// homomorphisms over each key's co-valid B facts. Incremental passes skip
/// them entirely (B is never in the delta), which is exactly the reuse the
/// ablation measures.
std::unique_ptr<Workload> MakeCascadeWorkload(const CascadeConfig& cfg);

}  // namespace tdx

#endif  // TDX_GEN_WORKLOAD_H_
