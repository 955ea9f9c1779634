// Tests for the benchmark report merge/check library behind
// tools/tdx_bench_diff — the perf-regression gate CI's bench-smoke job
// runs. Reports are built from JSON literals shaped like google-benchmark
// output.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/obs/bench_diff.h"
#include "src/obs/json.h"

namespace tdx::obs {
namespace {

Json Parse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? std::move(*parsed) : Json();
}

/// A report with one context and the given benchmarks array body.
Json Report(const std::string& benchmarks) {
  return Parse(R"({"context":{"date":"2026-01-01","num_cpus":8},)"
               R"("benchmarks":[)" + benchmarks + "]}");
}

const char kFast[] =
    R"({"name":"BM_A/1","real_time":100.0,"time_unit":"ns","fires":7})";
const char kSlow[] = R"({"name":"BM_A/0","real_time":400.0,"time_unit":"ns"})";

TEST(MergeBenchReports, ConcatenatesUnderFirstContextMinusDate) {
  std::vector<Json> reports;
  reports.push_back(Report(kFast));
  reports.push_back(Report(kSlow));
  auto merged = MergeBenchReports(reports);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const Json* context = merged->Find("context");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->Find("date"), nullptr);  // dropped for reproducibility
  ASSERT_NE(context->Find("num_cpus"), nullptr);
  const Json* benchmarks = merged->Find("benchmarks");
  ASSERT_NE(benchmarks, nullptr);
  ASSERT_EQ(benchmarks->items().size(), 2u);
  EXPECT_EQ(benchmarks->items()[0].Find("name")->as_string(), "BM_A/1");
  EXPECT_EQ(benchmarks->items()[1].Find("name")->as_string(), "BM_A/0");
}

TEST(MergeBenchReports, ErrorsOnReportWithoutBenchmarks) {
  std::vector<Json> reports;
  reports.push_back(Parse(R"({"context":{}})"));
  EXPECT_FALSE(MergeBenchReports(reports).ok());
}

TEST(CheckBenchGates, RatioMinPassesAndFails) {
  const Json fresh = Report(std::string(kFast) + "," + kSlow);
  const Json pass_gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":2.0}]})");
  auto report = CheckBenchGates(fresh, nullptr, pass_gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  ASSERT_EQ(report->checks.size(), 1u);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 4.0);

  const Json fail_gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":5.0}]})");
  report = CheckBenchGates(fresh, nullptr, fail_gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass);  // a failed gate is a verdict, not an error
  EXPECT_FALSE(report->checks[0].pass);
}

TEST(CheckBenchGates, RatioMaxBoundsOverhead) {
  const Json fresh = Report(std::string(kFast) + "," + kSlow);
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"overhead","num":"BM_A/1","den":"BM_A/0",)"
      R"("max":1.05}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 0.25);
}

TEST(CheckBenchGates, DriftComparesAgainstBaselineRatio) {
  const Json fresh = Report(std::string(kFast) + "," + kSlow);
  // Baseline ratio 8x vs fresh 4x: within 1.10x drift? 4*1.10 < 8 — fail.
  const Json baseline = Report(
      R"({"name":"BM_A/1","real_time":50.0,"time_unit":"ns"},)"
      R"({"name":"BM_A/0","real_time":400.0,"time_unit":"ns"})");
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":2.0,"baseline_drift":1.10}]})");
  auto report = CheckBenchGates(fresh, &baseline, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass);
  ASSERT_EQ(report->checks.size(), 2u);
  EXPECT_TRUE(report->checks[0].pass);   // min 2.0 holds
  EXPECT_FALSE(report->checks[1].pass);  // drift does not
  EXPECT_EQ(report->checks[1].kind, "ratio_drift");
}

TEST(CheckBenchGates, DriftIsSoftOnMissingBaselineBenchmark) {
  // A gate added in the same change as its benchmarks has no committed
  // history yet; the drift check skips, the min bound still applies.
  const Json fresh = Report(std::string(kFast) + "," + kSlow);
  const Json baseline = Report(
      R"({"name":"BM_Other","real_time":1.0,"time_unit":"ns"})");
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":2.0,"baseline_drift":1.10}]})");
  auto report = CheckBenchGates(fresh, &baseline, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  ASSERT_EQ(report->checks.size(), 1u);
}

TEST(CheckBenchGates, MissingFreshBenchmarkIsAnError) {
  // A renamed benchmark must not silently turn its gate off.
  const Json fresh = Report(kFast);
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_Gone","den":"BM_A/1",)"
      R"("min":2.0}]})");
  EXPECT_FALSE(CheckBenchGates(fresh, nullptr, gates).ok());
}

TEST(CheckBenchGates, CounterGateReadsUserCounters) {
  const Json fresh = Report(kFast);
  const Json gates = Parse(
      R"({"counter_gates":[{"name":"fires","benchmark":"BM_A/1",)"
      R"("counter":"fires","min":5}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 7.0);

  const Json missing = Parse(
      R"({"counter_gates":[{"name":"fires","benchmark":"BM_A/1",)"
      R"("counter":"nope","min":5}]})");
  EXPECT_FALSE(CheckBenchGates(fresh, nullptr, missing).ok());
}

TEST(CheckBenchGates, CounterGateMaxBoundsFromAbove) {
  const Json fresh = Report(kFast);
  const Json gates = Parse(
      R"({"counter_gates":[{"name":"few","benchmark":"BM_A/1",)"
      R"("counter":"fires","max":7},{"name":"fewer","benchmark":"BM_A/1",)"
      R"("counter":"fires","max":6},{"name":"band","benchmark":"BM_A/1",)"
      R"("counter":"fires","min":1,"max":6}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->pass);
  ASSERT_EQ(report->checks.size(), 4u);
  EXPECT_TRUE(report->checks[0].pass);  // 7 <= 7
  EXPECT_DOUBLE_EQ(report->checks[0].limit, 7.0);
  EXPECT_FALSE(report->checks[1].pass);  // 7 > 6
  EXPECT_NE(report->checks[1].detail.find("max 6"), std::string::npos);
  EXPECT_TRUE(report->checks[2].pass);   // band: min holds
  EXPECT_FALSE(report->checks[3].pass);  // band: max fails

  const Json unbounded = Parse(
      R"({"counter_gates":[{"name":"none","benchmark":"BM_A/1",)"
      R"("counter":"fires"}]})");
  EXPECT_FALSE(CheckBenchGates(fresh, nullptr, unbounded).ok());
}

TEST(CheckBenchGates, RelativeCounterGateBoundsTheRatio) {
  const Json fresh = Report(
      R"({"name":"BM_S/400","real_time":4.0,"time_unit":"ms","per":30},)"
      R"({"name":"BM_S/100","real_time":1.0,"time_unit":"ms","per":25},)"
      R"({"name":"BM_S/0","real_time":1.0,"time_unit":"ms","per":0})");
  const Json gates = Parse(
      R"({"counter_gates":[{"name":"linear","benchmark":"BM_S/400",)"
      R"("relative_to":"BM_S/100","counter":"per","max":1.25},)"
      R"({"name":"tight","benchmark":"BM_S/400",)"
      R"("relative_to":"BM_S/100","counter":"per","max":1.1}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->checks.size(), 2u);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 1.2);
  EXPECT_TRUE(report->checks[0].pass);
  EXPECT_FALSE(report->checks[1].pass);
  EXPECT_NE(report->checks[1].detail.find("BM_S/400.per / BM_S/100.per"),
            std::string::npos);

  // A zero or missing denominator is a malformed gate, not a verdict.
  for (const char* den : {"BM_S/0", "BM_S/7"}) {
    const Json bad = Parse(
        std::string(R"({"counter_gates":[{"name":"z","benchmark":"BM_S/400",)"
                    R"("relative_to":")") +
        den + R"(","counter":"per","max":2}]})");
    EXPECT_FALSE(CheckBenchGates(fresh, nullptr, bad).ok()) << den;
  }
}

TEST(CheckBenchGates, TimeUnitsAreNormalized) {
  // 0.4us vs 100ns: same 4x ratio once normalized.
  const Json fresh = Report(
      R"({"name":"BM_A/1","real_time":100.0,"time_unit":"ns"},)"
      R"({"name":"BM_A/0","real_time":0.4,"time_unit":"us"})");
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":3.9}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  EXPECT_NEAR(report->checks[0].actual, 4.0, 1e-9);
}

TEST(CheckBenchGates, PerBenchmarkThresholdAgainstBaseline) {
  const Json fresh = Report(
      R"({"name":"BM_A/1","real_time":130.0,"time_unit":"ns"},)"
      R"({"name":"BM_Noise","real_time":20.0,"time_unit":"ns"})");
  const Json baseline = Report(
      R"({"name":"BM_A/1","real_time":100.0,"time_unit":"ns"},)"
      R"({"name":"BM_Noise","real_time":10.0,"time_unit":"ns"})");
  const Json gates = Parse(
      R"({"per_benchmark":{"enabled":true,"threshold":1.25,)"
      R"("noise_floor_ns":50}})");
  auto report = CheckBenchGates(fresh, &baseline, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  // BM_A/1 regressed 1.3x > 1.25x; BM_Noise doubled but sits under the
  // noise floor and is not gated.
  EXPECT_FALSE(report->pass);
  ASSERT_EQ(report->checks.size(), 1u);
  EXPECT_EQ(report->checks[0].gate, "BM_A/1");
}

/// One google-benchmark 1.7 repetition aggregate of `run`: a time entry,
/// or for "cv" the fraction, with the counter `fires` alongside.
std::string Aggregate(const std::string& run, const std::string& aggregate,
                      double real_time, double fires) {
  const bool cv = aggregate == "cv";
  return R"({"name":")" + run + "_" + aggregate + R"(","run_name":")" + run +
         R"(","run_type":"aggregate","repetitions":5,"aggregate_name":")" +
         aggregate + R"(","aggregate_unit":")" +
         (cv ? "percentage" : "time") + R"(","real_time":)" +
         std::to_string(real_time) +
         (cv ? std::string() : std::string(R"(,"time_unit":"ns")")) +
         R"(,"fires":)" + std::to_string(fires) + "}";
}

/// The aggregates --benchmark_report_aggregates_only emits for `run`.
std::string Aggregates(const std::string& run, double mean, double median,
                       double cv, double fires) {
  return Aggregate(run, "mean", mean, fires) + "," +
         Aggregate(run, "median", median, fires) + "," +
         Aggregate(run, "stddev", mean * cv, 0) + "," +
         Aggregate(run, "cv", cv, 0);
}

TEST(CheckBenchGates, AggregateOnlyReportGatesOnMedians) {
  // Means 4x apart, medians 5x apart: the gates read the medians, under
  // the run names, and each ratio gate prints both runs' cv.
  const Json fresh = Report(Aggregates("BM_A/0", 400, 500, 0.05, 3) + "," +
                            Aggregates("BM_A/1", 100, 100, 0.02, 7));
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":4.5}],"counter_gates":[{"name":"fires",)"
      R"("benchmark":"BM_A/1","counter":"fires","max":7}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  ASSERT_EQ(report->checks.size(), 2u);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 5.0);
  EXPECT_NE(report->checks[0].detail.find("(cv num 5%, den 2%)"),
            std::string::npos)
      << report->checks[0].detail;
  EXPECT_DOUBLE_EQ(report->checks[1].actual, 7.0);
}

TEST(CheckBenchGates, MixedReportPrefersMediansOverIterations) {
  // BM_A/0 ran with repetitions but without aggregates-only: its iteration
  // entries share its name and come first, and its median comes after
  // them. BM_A/1 ran once. Unrepeated runs print no cv, and a ratio gate
  // with one repeated side marks the other n/a.
  const Json fresh = Report(
      R"({"name":"BM_A/0","run_name":"BM_A/0","run_type":"iteration",)"
      R"("real_time":900.0,"time_unit":"ns"},)"
      R"({"name":"BM_A/0","run_name":"BM_A/0","run_type":"iteration",)"
      R"("real_time":300.0,"time_unit":"ns"},)" +
      Aggregates("BM_A/0", 600, 300, 0.5, 3) + "," + kFast);
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("max":3.5},{"name":"plain","num":"BM_A/1","den":"BM_A/1",)"
      R"("max":1}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->pass);
  ASSERT_EQ(report->checks.size(), 2u);
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 3.0);
  EXPECT_NE(report->checks[0].detail.find("(cv num 50%, den n/a)"),
            std::string::npos)
      << report->checks[0].detail;
  EXPECT_EQ(report->checks[1].detail.find("cv"), std::string::npos);
  // Aggregates other than the median keep their own names.
  const Json mean_gates = Parse(
      R"({"ratio_gates":[{"name":"mean","num":"BM_A/0_mean",)"
      R"("den":"BM_A/1","min":6}]})");
  report = CheckBenchGates(fresh, nullptr, mean_gates);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->checks[0].actual, 6.0);
}

TEST(MergeBenchReports, KeepsNonFiniteStatistics) {
  // google-benchmark writes the cv of a counter whose mean is 0 as NaN;
  // the report must still parse, merge and re-emit it.
  const Json report = Report(
      R"({"name":"BM_A/1_cv","run_name":"BM_A/1","aggregate_name":"cv",)"
      R"("real_time":0.02,"fires":NaN,"up":Infinity,"down":-Infinity})");
  const Json* entry = &report.Find("benchmarks")->items()[0];
  EXPECT_TRUE(std::isnan(entry->Find("fires")->as_number()));
  EXPECT_TRUE(std::isinf(entry->Find("up")->as_number()));
  EXPECT_LT(entry->Find("down")->as_number(), 0);
  std::vector<Json> reports;
  reports.push_back(report);
  auto merged = MergeBenchReports(reports);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const std::string text = merged->Dump(0);
  EXPECT_NE(text.find("\"fires\":NaN"), std::string::npos) << text;
  EXPECT_TRUE(ParseJson(text).ok());
  EXPECT_FALSE(ParseJson("[NaNa]").ok());
}

TEST(GateReport, VerdictsSerialize) {
  const Json fresh = Report(std::string(kFast) + "," + kSlow);
  const Json gates = Parse(
      R"({"ratio_gates":[{"name":"speedup","num":"BM_A/0","den":"BM_A/1",)"
      R"("min":5.0}]})");
  auto report = CheckBenchGates(fresh, nullptr, gates);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string text = report->ToText();
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  auto verdict = ParseJson(report->ToJson());
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  const Json* pass = verdict->Find("pass");
  ASSERT_NE(pass, nullptr);
  EXPECT_FALSE(pass->as_bool());
  ASSERT_NE(verdict->Find("checks"), nullptr);
  EXPECT_EQ(verdict->Find("checks")->items().size(), 1u);
}

}  // namespace
}  // namespace tdx::obs
