// Span coverage of a traced tdx_cli run: every millisecond of `cli.run`
// must belong to a named child span (parse, analyze, the engine, print),
// so a slow run can be explained from its trace file alone. Drives the
// real binary on the perfbench-size cascade program, for `chase`, `query`,
// `query-at`, `abstract`, `snapshots` and `verify`. Also checks that
// `verify` chases once, and the peak-RSS readings at the close of the
// CLI's and the c-chase's stages.

#include <algorithm>
#include <cstdio>
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

// A scratch file name of the running test's own: ctest runs the tests of
// this file as concurrent processes.
std::string TestFile(const std::string& suffix) {
  return ::testing::TempDir() + "cli_trace_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

std::string WriteCascadeProgram() {
  auto w = MakeCascadeWorkload(CascadeConfig{
      .stages = 100, .ballast_keys = 60, .ballast_dup = 30, .horizon = 32});
  auto facts = SerializeInstanceFacts(w->source, w->universe);
  EXPECT_TRUE(facts.ok()) << facts.status();
  const std::string path = TestFile(".tdx");
  std::ofstream out(path);
  out << SerializeSchema(w->schema)
      << SerializeMapping(w->mapping, w->schema, w->universe) << *facts
      << "query reached(x): Cur(x);\n";
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Runs `tdx_cli <command> <program> <args>` traced on the cascade program
// and returns its trace (a JSON null if the run or the parse failed).
obs::Json RunTraced(const std::string& command, const std::string& args) {
  const std::string program = WriteCascadeProgram();
  const std::string trace = TestFile(".json");
  const std::string shell = std::string("\"") + TDX_CLI + "\" " + command +
                            " \"" + program + "\" " + args +
                            " --trace-out=\"" + trace + "\" > /dev/null 2>&1";
  EXPECT_EQ(std::system(shell.c_str()), 0) << shell;
  auto parsed = obs::ParseJson(ReadFile(trace));
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? std::move(parsed).value() : obs::Json();
}

// Checks that the spans nested in cli.run cover at least 95% of a traced
// `tdx_cli <command> <program> <args>`.
void ExpectChildSpansCoverTheRun(const std::string& command,
                                 const std::string& args) {
  const obs::Json trace = RunTraced(command, args);
  const obs::Json* events = trace.Find("traceEvents");
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
      << command << ": cli.run " << run_end - run_begin
      << "us, children cover " << covered << "us:" << names;
}

TEST(CliTraceTest, ChildSpansCoverTheRun) {
  ExpectChildSpansCoverTheRun("chase", "");
}

TEST(CliTraceTest, ChildSpansCoverAQueryRun) {
  ExpectChildSpansCoverTheRun("query", "reached");
}

// The perfbench point set: 0..31 over cascade's horizon.
TEST(CliTraceTest, ChildSpansCoverAQueryAtRun) {
  std::string args = "reached";
  for (int l = 0; l < 32; ++l) args += " " + std::to_string(l);
  ExpectChildSpansCoverTheRun("query-at", args + " --jobs=2");
}

TEST(CliTraceTest, ChildSpansCoverAnAbstractRun) {
  ExpectChildSpansCoverTheRun("abstract", "");
}

TEST(CliTraceTest, ChildSpansCoverASnapshotsRun) {
  std::string args;
  for (int l = 0; l < 32; ++l) args += " " + std::to_string(l);
  ExpectChildSpansCoverTheRun("snapshots", args);
}

TEST(CliTraceTest, ChildSpansCoverAVerifyRun) {
  ExpectChildSpansCoverTheRun("verify", "");
}

// The number of spans called `name` in a traced run.
int CountSpans(const obs::Json& trace, const std::string& name) {
  const obs::Json* events = trace.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return -1;
  int count = 0;
  for (const obs::Json& event : events->items()) {
    count += event.Find("name")->as_string() == name;
  }
  return count;
}

// Corollary 20 compares one c-chase with the abstract chase: `verify` runs
// the c-chase once and plans no more than `chase` does (the parser's plan
// and the lint pass's).
TEST(CliTraceTest, VerifyRunsTheCChaseOnce) {
  const obs::Json verify = RunTraced("verify", "");
  EXPECT_EQ(CountSpans(verify, "cchase.run"), 1);
  EXPECT_EQ(CountSpans(verify, "planner.plan_chase"),
            CountSpans(RunTraced("chase", ""), "planner.plan_chase"));
  EXPECT_EQ(CountSpans(RunTraced("verify", "--no-lint"), "planner.plan_chase"),
            1);
}

// The stage memory probes: the close of cli.parse, cchase.normalize_source,
// cchase.st_tgd and cli.run carries the peak RSS as `peak_rss_kb`, which
// never decreases along those stages, and --metrics-out keeps the last
// reading as the high-watermark gauge process.peak_rss_kb.
TEST(CliTraceTest, StagesCarryANonDecreasingPeakRss) {
  const std::string program = WriteCascadeProgram();
  const std::string trace = TestFile(".json");
  const std::string metrics = TestFile(".metrics");
  const std::string shell = std::string("\"") + TDX_CLI + "\" chase \"" +
                            program + "\" --trace-out=\"" + trace +
                            "\" --metrics-out=\"" + metrics +
                            "\" > /dev/null 2>&1";
  ASSERT_EQ(std::system(shell.c_str()), 0) << shell;

  auto parsed = obs::ParseJson(ReadFile(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  double last = 0;
  for (const char* stage : {"cli.parse", "cchase.normalize_source",
                            "cchase.st_tgd", "cli.run"}) {
    const obs::Json* reading = nullptr;
    for (const obs::Json& event : events->items()) {
      if (event.Find("name")->as_string() != stage) continue;
      const obs::Json* args = event.Find("args");
      ASSERT_NE(args, nullptr) << stage;
      reading = args->Find("peak_rss_kb");
    }
    ASSERT_NE(reading, nullptr) << stage << " has no peak_rss_kb";
    EXPECT_GT(reading->as_number(), 0) << stage;
    EXPECT_GE(reading->as_number(), last) << stage;
    last = reading->as_number();
  }

  auto snapshot = obs::ParseJson(ReadFile(metrics));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const obs::Json* gauges = snapshot->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const obs::Json* gauge = gauges->Find("process.peak_rss_kb");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->as_number(), last);
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace tdx
