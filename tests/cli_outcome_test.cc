// The documented outcome lines and exit codes of tdx_cli's chase commands:
// every command that chases reports a chase without a solution the same
// way (NO SOLUTION, exit 3; ABORTED, exit 4), `verify` compares a failed
// c-chase with a failed abstract chase instead, and its abstract chase runs
// under the same budget. Drives the real binary.

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace tdx {
namespace {

// The paper's Example 1 st-tgd and egd over a source that gives Ada two
// salaries from 3 on: the egd equates two constants, so no solution exists.
constexpr char kNoSolutionProgram[] = R"(
  source E(name, company);
  source S(name, salary);
  target Emp(name, company, salary);
  tgd sigma2: E(n, c) & S(n, s) -> Emp(n, c, s);
  egd e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
  fact E("Ada", "IBM") @ [0, 10);
  fact S("Ada", "18k") @ [0, 10);
  fact S("Ada", "20k") @ [3, 10);
  query q(n, s): Emp(n, _, s);
)";

// Writes `text` to a file named after the running test (ctest runs the
// tests of this file as concurrent processes).
std::string WriteProgram(const char* text) {
  const std::string path =
      ::testing::TempDir() + "cli_outcome_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".tdx";
  std::ofstream(path) << text;
  return path;
}

struct CliRun {
  std::string out;  // stdout only
  int exit_code = -1;
};

// Runs `tdx_cli <args> --no-lint`, keeping stdout and the exit code.
CliRun RunCli(const std::string& args) {
  const std::string shell = std::string("\"") + TDX_CLI + "\" " + args +
                            " --no-lint 2>/dev/null";
  CliRun run;
  FILE* pipe = popen(shell.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    run.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

constexpr char kNoSolutionLine[] =
    "NO SOLUTION: egd 'e1+' equates two distinct non-null values\n";

TEST(CliOutcomeTest, EveryChaseCommandReportsNoSolution) {
  const std::string program = WriteProgram(kNoSolutionProgram);
  for (const std::string& args :
       {"chase " + program, "core " + program, "snapshots " + program + " 0 5",
        "possible " + program + " q 5"}) {
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 3) << args;
    EXPECT_EQ(run.out, kNoSolutionLine) << args;
  }
}

TEST(CliOutcomeTest, VerifyAlignsTwoFailedChases) {
  const std::string program = WriteProgram(kNoSolutionProgram);
  const CliRun run = RunCli("verify " + program);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.out,
            "chase outcomes agree: yes\nALIGNED (Corollary 20 verified)\n");
}

// The abstract chase is the only relational chase verify runs, so the
// relational chase's fault site trips it and nothing else.
TEST(CliOutcomeTest, VerifyAbortsWhenItsAbstractChaseAborts) {
  const CliRun run = RunCli(std::string("verify \"") + TDX_REPO_DIR +
                            "/examples/programs/paper.tdx\" "
                            "--inject-fault=chase/tgd-phase");
  EXPECT_EQ(run.exit_code, 4);
  EXPECT_EQ(run.out, "ABORTED (injected-fault): Internal: injected fault\n");
}

TEST(CliOutcomeTest, VerifyChasesUnderTheBudget) {
  const CliRun run = RunCli(std::string("verify \"") + TDX_REPO_DIR +
                            "/examples/programs/paper.tdx\" --max-tgd-fires=1");
  EXPECT_EQ(run.exit_code, 4);
  EXPECT_EQ(run.out.rfind("ABORTED (tgd-fires): ", 0), 0u) << run.out;
}

TEST(CliOutcomeTest, AblationSwitchesAreNotFlags) {
  const std::string program = std::string("\"") + TDX_REPO_DIR +
                              "/examples/programs/paper.tdx\"";
  for (const char* flag :
       {"--naive-chase", "--no-schedule", "--no-incremental-normalize"}) {
    const CliRun run = RunCli("chase " + program + " " + flag);
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_EQ(run.out, "") << flag;
  }
}

}  // namespace
}  // namespace tdx
