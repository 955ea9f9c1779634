// In-process equivalents of the three tdx_cli commands the benchmark times.
//
// Each function makes the same public calls, in the same order, as
// tools/tdx_cli.cc does for that command on its default flags (read, parse,
// analyze, run, render) and returns exactly what the CLI writes to stdout.
// Every call is wrapped in a benchmark-side span ("perf.*"), which records
// only while an obs::Tracer is installed; untraced, the spans are free.

#ifndef TDX_PERFBENCH_PIPELINE_H_
#define TDX_PERFBENCH_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cchase.h"
#include "src/parser/parser.h"

namespace tdx::perf {

/// The whole file at `path`, or NotFound.
Result<std::string> ReadFile(const std::string& path);

/// `tdx_cli chase <path>`. The program and outcome are kept for the
/// output checks and the per-layer counters.
struct ChaseRun {
  std::unique_ptr<ParsedProgram> program;
  CChaseOutcome outcome;
  std::string output;
  std::size_t input_bytes = 0;
};
Result<ChaseRun> RunChaseCommand(const std::string& path);

/// What a query command prints, plus the number of answer tuples in it.
struct QueryRun {
  std::string output;
  std::size_t answers = 0;
};

/// `tdx_cli query <path> <query>`.
Result<QueryRun> RunQueryCommand(const std::string& path,
                                 const std::string& query);

/// `tdx_cli query-at <path> <query> <points...> --jobs=<jobs>`.
Result<QueryRun> RunQueryAtCommand(const std::string& path,
                                   const std::string& query,
                                   const std::vector<TimePoint>& points,
                                   unsigned jobs);

}  // namespace tdx::perf

#endif  // TDX_PERFBENCH_PIPELINE_H_
