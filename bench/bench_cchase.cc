// Experiment C-CHASE (Section 4.3): concrete chase scaling.
//
// Sweeps the c-chase over employment workloads along three axes:
//  * instance size (people),
//  * timeline density (horizon; denser histories -> more fragmentation),
//  * the share of unknown salaries (more spans without a salary -> more
//    fresh nulls; the full rule sigma2 fires first and witnesses every span
//    with one, so no null is minted only to be merged by the egd).
//
// Also ablates the normalizer choice inside the chase (Algorithm 1 vs the
// naive endpoint normalizer, CChaseOptions::use_naive_normalizer): the
// naive normalizer saves grouping time but inflates the instance the tgds
// then iterate over — the paper's trade-off, measured.

#include <benchmark/benchmark.h>

#include <optional>

#include "src/core/cchase.h"
#include "src/gen/workload.h"

namespace {

std::unique_ptr<tdx::Workload> MakeInstance(std::int64_t people,
                                            tdx::TimePoint horizon,
                                            double known) {
  tdx::EmploymentConfig cfg;
  cfg.num_people = static_cast<std::size_t>(people);
  cfg.num_companies = 10;
  cfg.avg_jobs = 3;
  cfg.horizon = horizon;
  cfg.salary_known_fraction = known;
  cfg.seed = 13;
  return tdx::MakeEmploymentWorkload(cfg);
}

void ReportChase(benchmark::State& state, const tdx::CChaseOutcome& outcome,
                 std::size_t source_facts) {
  state.counters["src_facts"] = static_cast<double>(source_facts);
  state.counters["norm_facts"] =
      static_cast<double>(outcome.source_norm_stats.output_facts);
  state.counters["tgt_facts"] = static_cast<double>(outcome.target.size());
  state.counters["tgd_fires"] = static_cast<double>(outcome.stats.tgd_fires);
  state.counters["egd_steps"] = static_cast<double>(outcome.stats.egd_steps);
  state.counters["nulls"] = static_cast<double>(outcome.stats.fresh_nulls);
}

void BM_CChaseBySize(benchmark::State& state) {
  auto w = MakeInstance(state.range(0), 100, 0.7);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    // Each iteration needs its own universe evolution; reuse is fine since
    // fresh nulls only grow the id space.
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseBySize)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_CChaseByDensity(benchmark::State& state) {
  // Same population, increasingly fine-grained histories.
  auto w = MakeInstance(100, static_cast<tdx::TimePoint>(state.range(0)), 0.7);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseByDensity)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_CChaseByUnknownShare(benchmark::State& state) {
  // range(0) = percent of employment spans with known salary.
  auto w = MakeInstance(100, 100, static_cast<double>(state.range(0)) / 100.0);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseByUnknownShare)->Arg(0)->Arg(30)->Arg(70)->Arg(100);

void BM_CChaseNormalizerAblation(benchmark::State& state) {
  // Small instance: the naive normalizer inflates the fact count so much
  // that larger sizes make this ablation dominate the whole harness.
  auto w = MakeInstance(30, 100, 0.7);
  tdx::CChaseOptions opts;
  opts.use_naive_normalizer = (state.range(0) == 1);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, opts);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  state.SetLabel(opts.use_naive_normalizer ? "naive normalizer"
                                           : "Algorithm 1");
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseNormalizerAblation)->Arg(0)->Arg(1);

void BM_CChaseSemiNaiveAblation(benchmark::State& state) {
  // Trigger-enumeration strategy for the target-tgd rounds. The employment
  // mapping has egds but no target tgds, so this ablation measures the
  // OVERHEAD of the delta-frontier bookkeeping on an egd-heavy workload:
  // both arms must produce identical stats and near-identical times. (The
  // speedup side of the ablation lives in bench_target_tgd's rounds-heavy
  // cascade.) Arg: 1 = semi-naive, 0 = naive.
  auto w = MakeInstance(100, 100, 0.5);
  tdx::CChaseOptions opts;
  opts.semi_naive = (state.range(0) == 1);
  std::optional<tdx::CChaseOutcome> last;
  for (auto _ : state) {
    auto outcome = tdx::CChase(w->source, w->lifted, &w->universe, opts);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok()) last = std::move(outcome).value();
  }
  state.SetLabel(opts.semi_naive ? "semi-naive" : "naive rounds");
  state.counters["tgd_triggers"] =
      static_cast<double>(last->stats.tgd_triggers);
  ReportChase(state, *last, w->source.size());
}
BENCHMARK(BM_CChaseSemiNaiveAblation)->Arg(1)->Arg(0);

}  // namespace
