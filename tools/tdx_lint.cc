// tdx_lint: static analysis of tdx programs.
//
//   tdx_lint [flags] <program-file>...
//
// Parses each program and runs the mapping analyzer (src/analysis/) over
// it, printing the diagnostics (see src/analysis/diagnostic.h for the ID
// catalogue). A program that does not parse yields a single TDX000 error
// carrying the parse message.
//
// Flags:
//   --format=text   clang-style lines plus a summary (default)
//   --format=json   one JSON object per file, wrapped in a JSON array
//   --Werror        treat warnings as errors
//   --explain-plan  also render the chase planner's schedule per file
//                   (text: appended after the report; json: a "plan" key
//                   added to the file's object)
//
// Exit status: 0 when no file produced an error-severity diagnostic,
// 1 when at least one did, 2 on usage or I/O problems.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/planner.h"
#include "src/parser/parser.h"

namespace {

int Usage() {
  std::cerr << "usage: tdx_lint [--format=text|json] [--Werror] "
               "[--explain-plan] <file>...\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Lints one file; parse failures become a TDX000 report with an unknown
/// certificate (nothing was proven about an unparsed program). When `plan`
/// is non-null and the file parses, *plan receives the mapping's chase
/// schedule (for --explain-plan).
tdx::AnalysisReport LintFile(const std::string& text,
                             std::optional<tdx::ChaseSchedule>* plan) {
  auto parsed = tdx::ParseProgram(text);
  if (!parsed.ok()) {
    tdx::AnalysisReport report;
    report.certificate.criterion = tdx::TerminationCriterion::kUnknown;
    report.Add("TDX000", tdx::Severity::kError,
               "program does not parse: " + parsed.status().message());
    return report;
  }
  if (plan != nullptr) {
    *plan = tdx::ScheduleFor((*parsed)->mapping, (*parsed)->schema);
  }
  return tdx::AnalyzeProgram(**parsed);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool explain_plan = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format=text") {
      json = false;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (arg == "--explain-plan") {
      explain_plan = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  bool any_errors = false;
  std::string json_out = "[";
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string text;
    if (!ReadFile(files[i], &text)) {
      std::cerr << "cannot open '" << files[i] << "'\n";
      return 2;
    }
    std::optional<tdx::ChaseSchedule> plan;
    tdx::AnalysisReport report =
        LintFile(text, explain_plan ? &plan : nullptr);
    if (werror) report.PromoteWarnings();
    any_errors = any_errors || report.HasErrors();
    if (json) {
      if (i > 0) json_out += ',';
      std::string object = tdx::RenderJson(report, files[i]);
      if (plan.has_value()) {
        // Splice the schedule into the file's object, before the final '}'.
        object.insert(object.size() - 1, ", \"plan\": " + plan->ToJson());
      }
      json_out += object;
    } else {
      std::cout << tdx::RenderText(report, files[i]);
      if (plan.has_value()) std::cout << plan->ToText();
    }
  }
  if (json) std::cout << json_out << "]\n";
  return any_errors ? 1 : 0;
}
