// Experiment INC-NORM: incremental vs full target normalization inside the
// c-chase (core/normalize_incremental.h).
//
// The cascade workload (gen/workload.h, MakeCascadeWorkload) forces the
// chase through `stages` outer iterations: each hop mints an annotated
// null that only an egd merge can resolve, so every stage runs one
// post-rewrite normalization pass whose only new work is the rewritten Hop
// row (a dirty row, kept in the watermark) and one post-rounds pass whose
// delta is ~2 facts. A block of co-valid ballast facts (an effect-free
// egd's lhs, quadratically many homs per key) dominates the full pass's
// sweep; the incremental pass proves those components untouched and
// copies them through, so only the chase's first pass is a full one.
// range(0) toggles CChaseOptions::incremental_normalize — the output is
// bit-identical either way (asserted in normalize_incremental_test.cc);
// only the time differs. CI gates full/incremental >= 3x and at most one
// full pass per incremental run (bench-smoke, bench/bench_gates.json).

#include <benchmark/benchmark.h>

#include <optional>

#include "src/core/cchase.h"
#include "src/gen/workload.h"

namespace {

tdx::CascadeConfig BenchConfig() {
  tdx::CascadeConfig cfg;
  cfg.stages = 12;
  cfg.ballast_keys = 60;
  cfg.ballast_dup = 30;
  cfg.horizon = 8;
  return cfg;
}

/// Counters of the last chase's cumulative target record. `full_passes`
/// counts its normalizer passes from an empty watermark: with the
/// incremental path off the state is invalidated after every pass, so
/// every pass is full.
void ReportNorm(benchmark::State& state, const tdx::CChaseOutcome& outcome) {
  state.counters["tgt_facts"] = static_cast<double>(outcome.target.size());
  state.counters["norm_homs"] =
      static_cast<double>(outcome.target_norm_stats.homomorphisms);
  state.counters["reused"] =
      static_cast<double>(outcome.target_norm_stats.reused_components);
  state.counters["egd_steps"] = static_cast<double>(outcome.stats.egd_steps);
  state.counters["full_passes"] =
      static_cast<double>(outcome.target_norm_stats.full_passes);
}

void RunCascade(benchmark::State& state, const tdx::CChaseOptions& options) {
  auto w = tdx::MakeCascadeWorkload(BenchConfig());
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, options);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportNorm(state, *last);
}

/// range(0): 0 = full re-normalization every pass, 1 = incremental.
void BM_CascadeNormalize(benchmark::State& state) {
  tdx::CChaseOptions options;
  options.incremental_normalize = state.range(0) != 0;
  RunCascade(state, options);
}
BENCHMARK(BM_CascadeNormalize)->Arg(0)->Arg(1);

}  // namespace
