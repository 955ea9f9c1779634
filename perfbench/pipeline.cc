#include "perfbench/pipeline.h"

#include <fstream>
#include <sstream>

#include "src/analysis/analyzer.h"
#include "src/core/certain.h"
#include "src/obs/trace.h"
#include "src/parser/printer.h"

namespace tdx::perf {
namespace {

// A command failure the CLI reports with a non-zero exit; for the benchmark
// every one of them is an error, since its workloads always have solutions.
Status Unexpected(const std::string& what) {
  return Status::Internal("unexpected outcome: " + what);
}

struct Loaded {
  std::unique_ptr<ParsedProgram> program;
  std::size_t input_bytes = 0;
};

// Read, parse and the advisory lint pass, as tdx_cli runs them before every
// command. Diagnostics are rendered (the CLI prints them to stderr) and
// dropped.
Result<Loaded> Load(const std::string& path) {
  TDX_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  Loaded loaded;
  loaded.input_bytes = text.size();
  {
    TDX_TRACE_SPAN("perf.parse");
    TDX_ASSIGN_OR_RETURN(loaded.program, ParseProgram(text));
  }
  {
    TDX_TRACE_SPAN("perf.analyze");
    const AnalysisReport report = AnalyzeProgram(*loaded.program);
    std::string rendered;
    for (const Diagnostic& d : report.diagnostics) {
      rendered += RenderDiagnostic(d, path);
    }
  }
  return loaded;
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<ChaseRun> RunChaseCommand(const std::string& path) {
  TDX_ASSIGN_OR_RETURN(Loaded loaded, Load(path));
  ParsedProgram& program = *loaded.program;
  Result<CChaseOutcome> outcome = [&] {
    TDX_TRACE_SPAN("perf.cchase");
    return CChase(program.source, program.lifted, &program.universe, {});
  }();
  if (!outcome.ok()) return outcome.status();
  if (outcome->kind != ChaseResultKind::kSuccess) {
    return Unexpected("chase did not succeed");
  }
  TDX_TRACE_SPAN("perf.render");
  std::string output =
      RenderConcreteInstance(outcome->target, program.universe);
  return ChaseRun{std::move(loaded.program), std::move(outcome).value(),
                  std::move(output), loaded.input_bytes};
}

Result<QueryRun> RunQueryCommand(const std::string& path,
                                 const std::string& query) {
  TDX_ASSIGN_OR_RETURN(Loaded loaded, Load(path));
  ParsedProgram& program = *loaded.program;
  TDX_ASSIGN_OR_RETURN(const UnionQuery* q, program.FindQuery(query));
  TDX_ASSIGN_OR_RETURN(UnionQuery lifted, LiftUnionQuery(*q, program.schema));
  CertainAnswersResult result;
  {
    TDX_TRACE_SPAN("perf.certain");
    TDX_ASSIGN_OR_RETURN(result, CertainAnswers(lifted, program.source,
                                                program.lifted,
                                                &program.universe));
  }
  if (result.chase_kind != ChaseResultKind::kSuccess) {
    return Unexpected("certain answers without a solution");
  }
  TDX_TRACE_SPAN("perf.render");
  return QueryRun{RenderAnswers(result.answers, program.universe),
                  result.answers.size()};
}

Result<QueryRun> RunQueryAtCommand(const std::string& path,
                                   const std::string& query,
                                   const std::vector<TimePoint>& points,
                                   unsigned jobs) {
  TDX_ASSIGN_OR_RETURN(Loaded loaded, Load(path));
  ParsedProgram& program = *loaded.program;
  TDX_ASSIGN_OR_RETURN(const UnionQuery* q, program.FindQuery(query));
  std::vector<CertainAnswersResult> results;
  {
    TDX_TRACE_SPAN("perf.certain_many");
    TDX_ASSIGN_OR_RETURN(results,
                         CertainAnswersAtMany(*q, program.source,
                                              program.mapping, points,
                                              &program.universe, jobs));
  }
  TDX_TRACE_SPAN("perf.render");
  QueryRun run;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (results[i].chase_kind != ChaseResultKind::kSuccess) {
      return Unexpected("snapshot without a solution");
    }
    run.output += "--- certain(" + query + ", db_" +
                  std::to_string(points[i]) + ") ---\n";
    run.output += RenderAnswers(results[i].answers, program.universe);
    run.answers += results[i].answers.size();
  }
  return run;
}

}  // namespace tdx::perf
