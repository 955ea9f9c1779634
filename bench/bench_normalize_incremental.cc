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
//
// BM_CascadeScaling runs the perfbench-size cascade (60x30 ballast,
// horizon 32) at range(0) stages and reports the work per stage: rows the
// target normalization passes visited, and rows every finder the c-chase
// owns hashed into an index. A pass reads only its delta, so rows visited
// per stage must not grow with the stage count (a deterministic gate on
// 400 vs 100 stages); the time ratio of the two is gated too.

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

void BM_CascadeScaling(benchmark::State& state) {
  tdx::CascadeConfig cfg;
  cfg.stages = static_cast<std::size_t>(state.range(0));
  cfg.ballast_keys = 60;
  cfg.ballast_dup = 30;
  cfg.horizon = 32;
  auto w = tdx::MakeCascadeWorkload(cfg);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  const double stages = static_cast<double>(cfg.stages);
  state.counters["visited_per_stage"] =
      static_cast<double>(last->target_norm_stats.rows_visited) / stages;
  state.counters["indexed_per_stage"] =
      static_cast<double>(last->stats.search.rows_indexed) / stages;
  state.counters["full_passes"] =
      static_cast<double>(last->target_norm_stats.full_passes);
}
BENCHMARK(BM_CascadeScaling)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
