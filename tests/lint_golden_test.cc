// Golden-file tests for the analyzer's renderers over the shipped example
// programs: the exact text and JSON that `tdx_lint` prints for each file
// under examples/programs/ is pinned in tests/golden/<name>.lint.{txt,json}.
//
// To refresh a golden after an intentional output change, run tdx_lint on
// the example from the repo root and save its output:
//   text: `tdx_lint <file>` is exactly the .lint.txt golden;
//   json: `tdx_lint --format=json <file>` prints the golden object wrapped
//         in a one-element JSON array — strip the brackets.

#include <gtest/gtest.h>

#include <string>

#include "src/analysis/analyzer.h"
#include "src/parser/parser.h"
#include "tests/test_util.h"

#ifndef TDX_REPO_DIR
#define TDX_REPO_DIR "."
#endif

namespace tdx {
namespace {

using ::tdx::testing::ReadFileOrDie;

class LintGoldenTest : public ::testing::TestWithParam<const char*> {
 protected:
  /// Path used inside the rendered output (repo-relative, like the CI
  /// smoke job invokes tdx_lint).
  std::string DisplayPath() const {
    return std::string("examples/programs/") + GetParam() + ".tdx";
  }

  AnalysisReport Lint() const {
    const std::string text =
        ReadFileOrDie(std::string(TDX_REPO_DIR) + "/" + DisplayPath());
    auto parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) std::abort();
    return AnalyzeProgram(**parsed);
  }

  std::string Golden(const std::string& extension) const {
    return ReadFileOrDie(std::string(TDX_REPO_DIR) + "/tests/golden/" +
                         GetParam() + ".lint." + extension);
  }
};

TEST_P(LintGoldenTest, TextOutputMatchesGolden) {
  EXPECT_EQ(RenderText(Lint(), DisplayPath()), Golden("txt"));
}

TEST_P(LintGoldenTest, JsonOutputMatchesGolden) {
  EXPECT_EQ(RenderJson(Lint(), DisplayPath()).Dump() + "\n", Golden("json"));
}

INSTANTIATE_TEST_SUITE_P(Examples, LintGoldenTest,
                         ::testing::Values("paper", "flights", "medical",
                                           "strata"));

}  // namespace
}  // namespace tdx
