// Benchmark report diffing: the library behind tools/tdx_bench_diff, the
// single perf-regression gate CI's bench-smoke job calls.
//
// Two operations over google-benchmark JSON reports:
//
//  * Merge — concatenate the benchmark arrays of several reports under the
//    first report's context (minus its "date", so the committed
//    BENCH_chase.json stays reproducible). This replaces the inline python
//    merge bench-smoke used to carry.
//
//  * Check — evaluate a gates config against a fresh report and (optionally)
//    a baseline report, producing a machine-readable verdict. Three gate
//    families:
//
//      - per-benchmark threshold: every benchmark present in both reports
//        must satisfy fresh_time <= baseline_time * threshold, unless both
//        sit under the noise floor. Meaningful only when both reports come
//        from the same hardware; CI leaves it disabled because the committed
//        baseline was measured elsewhere.
//      - ratio gates: a dimensionless fresh_time(num)/fresh_time(den) ratio
//        with a min and/or max bound, and optionally a drift bound against
//        the same ratio computed from the baseline (ratios transfer across
//        hardware where absolute times do not).
//      - counter gates: a user counter on one benchmark must be >= min
//        and/or <= max — guards that an optimization is actually exercising
//        its fast path, not just fast. With "relative_to" the bound applies
//        to the counter's ratio to the same counter on another benchmark,
//        e.g. how a per-stage count grows from a small size to a large one.
//
// A report may hold google-benchmark repetitions (--benchmark_repetitions,
// with or without --benchmark_report_aggregates_only): a repeated run is
// then gated on its "median" aggregate, looked up under the run's own
// name, and each ratio gate's detail line carries both runs' "cv"
// aggregate, so a verdict shows how noisy the numbers behind it were.
//
// The gates config is itself JSON (see bench/bench_gates.json for the CI
// instance and docs/INTERNALS.md for the schema).

#ifndef TDX_OBS_BENCH_DIFF_H_
#define TDX_OBS_BENCH_DIFF_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/json.h"

namespace tdx::obs {

/// Concatenates `reports` (parsed google-benchmark JSON documents, in
/// order) into one report under the first report's context. The context's
/// "date" member is dropped. Errors if any report lacks a "benchmarks"
/// array or the first lacks a "context" object.
Result<Json> MergeBenchReports(const std::vector<Json>& reports);

/// One evaluated gate.
struct GateCheck {
  std::string gate;    ///< gate name from the config (or benchmark name)
  std::string kind;    ///< "per_benchmark" | "ratio" | "ratio_drift" |
                       ///< "counter"
  bool pass = false;
  double actual = 0;   ///< the measured value the gate bounded
  double limit = 0;    ///< the bound it was held to
  std::string detail;  ///< one human-readable line
};

/// The full verdict of one check run.
struct GateReport {
  bool pass = true;
  std::vector<GateCheck> checks;

  /// Stable-schema JSON verdict:
  /// {"pass":bool,"checks":[{"gate","kind","pass","actual","limit",
  /// "detail"},...]}.
  std::string ToJson() const;
  /// One line per gate ("PASS <detail>" / "FAIL <detail>") plus a summary.
  std::string ToText() const;
};

/// Evaluates `gates` against `fresh`, using `baseline` for per-benchmark
/// thresholds and ratio drift bounds (pass nullptr to skip both). Errors on
/// malformed reports/config or on a gate referencing a benchmark or counter
/// missing from `fresh`; a gate failure is NOT an error — it is a failed
/// check in the returned report.
Result<GateReport> CheckBenchGates(const Json& fresh, const Json* baseline,
                                   const Json& gates);

}  // namespace tdx::obs

#endif  // TDX_OBS_BENCH_DIFF_H_
