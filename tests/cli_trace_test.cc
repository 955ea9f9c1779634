// Span coverage of a traced tdx_cli run: every millisecond of `cli.run`
// must belong to a named child span (parse, analyze, the engine, print),
// so a slow run can be explained from its trace file alone. Drives the
// real binary on the perfbench-size cascade program.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/gen/workload.h"
#include "src/obs/json.h"
#include "src/parser/serialize.h"

namespace tdx {
namespace {

std::string WriteCascadeProgram() {
  auto w = MakeCascadeWorkload(CascadeConfig{
      .stages = 100, .ballast_keys = 60, .ballast_dup = 30, .horizon = 32});
  auto facts = SerializeInstanceFacts(w->source, w->universe);
  EXPECT_TRUE(facts.ok()) << facts.status();
  const std::string path = ::testing::TempDir() + "cli_trace_cascade.tdx";
  std::ofstream out(path);
  out << SerializeSchema(w->schema)
      << SerializeMapping(w->mapping, w->schema, w->universe) << *facts;
  return path;
}

TEST(CliTraceTest, ChildSpansCoverTheRun) {
  const std::string program = WriteCascadeProgram();
  const std::string trace = ::testing::TempDir() + "cli_trace_cascade.json";
  const std::string command = std::string("\"") + TDX_CLI + "\" chase \"" +
                              program + "\" --trace-out=\"" + trace +
                              "\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream in(trace);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = obs::ParseJson(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  double run_begin = -1;
  double run_end = -1;
  for (const obs::Json& event : events->items()) {
    if (event.Find("name")->as_string() != "cli.run") continue;
    run_begin = event.Find("ts")->as_number();
    run_end = run_begin + event.Find("dur")->as_number();
  }
  ASSERT_GT(run_end, run_begin) << "no cli.run span";

  // The union of the spans nested in cli.run.
  std::vector<std::pair<double, double>> children;
  std::string names;
  for (const obs::Json& event : events->items()) {
    const std::string& name = event.Find("name")->as_string();
    const double begin = event.Find("ts")->as_number();
    const double end = begin + event.Find("dur")->as_number();
    if (name == "cli.run" || begin < run_begin || end > run_end) continue;
    children.emplace_back(begin, end);
    if (names.find(name) == std::string::npos) names += " " + name;
  }
  std::sort(children.begin(), children.end());
  double covered = 0;
  double reach = run_begin;
  for (const auto& [begin, end] : children) {
    if (end <= reach) continue;
    covered += end - std::max(begin, reach);
    reach = end;
  }
  EXPECT_GE(covered / (run_end - run_begin), 0.95)
      << "cli.run " << run_end - run_begin << "us, children cover "
      << covered << "us:" << names;
}

}  // namespace
}  // namespace tdx
