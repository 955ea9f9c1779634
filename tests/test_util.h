// Shared helpers for the tdx test suite.

#ifndef TDX_TESTS_TEST_UTIL_H_
#define TDX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <pthread.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/parser/parser.h"
#include "src/temporal/concrete_instance.h"

namespace tdx::testing {

/// The paper's running example: Example 1/6 mapping and the Figure 4 source
/// instance, plus the query of Section 5 style.
inline constexpr std::string_view kPaperProgram = R"(
  # Example 1 / Example 6 of the paper.
  source E(name, company);
  source S(name, salary);
  target Emp(name, company, salary);

  tgd sigma1: E(n, c) -> exists s: Emp(n, c, s);
  tgd sigma2: E(n, c) & S(n, s) -> Emp(n, c, s);
  egd e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2;

  # Figure 4.
  fact E("Ada", "IBM")    @ [2012, 2014);
  fact E("Ada", "Google") @ [2014, inf);
  fact E("Bob", "IBM")    @ [2013, 2018);
  fact S("Ada", "18k")    @ [2013, inf);
  fact S("Bob", "13k")    @ [2015, inf);

  query salaries(n, s): Emp(n, _, s);
)";

/// The paper's Figure 4 source under two existential st-tgds that egds
/// join: E knows a job's company, S its salary, and an employee holds one
/// job at a time. No full rule witnesses either head, so the fresh nulls,
/// and the egd merges that equate them with the other side's constants,
/// do not depend on the order in which st-tgds fire.
inline constexpr std::string_view kMergingProgram = R"(
  source E(name, company);
  source S(name, salary);
  target Emp(name, company, salary);

  tgd m1: E(n, c) -> exists s: Emp(n, c, s);
  tgd m2: S(n, s) -> exists c: Emp(n, c, s);
  egd k1: Emp(n, c, _) & Emp(n, c2, _) -> c = c2;
  egd k2: Emp(n, _, s) & Emp(n, _, s2) -> s = s2;

  fact E("Ada", "IBM")    @ [2012, 2014);
  fact E("Ada", "Google") @ [2014, inf);
  fact E("Bob", "IBM")    @ [2013, 2018);
  fact S("Ada", "18k")    @ [2013, inf);
  fact S("Bob", "13k")    @ [2015, inf);
)";

/// The contents of the file at `path`, or fails the test.
inline std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  if (!in.good()) std::abort();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The thread stack RunOnSmallStack uses: 256 KiB, a 32nd of the usual
/// 8 MiB main-thread stack.
inline constexpr std::size_t kSmallStackBytes = 256 * 1024;

/// Runs `work` to completion on a thread whose stack is `stack_bytes` (at
/// least PTHREAD_STACK_MIN). Work whose stack depth grows with its input
/// overflows it and crashes the test binary.
inline void RunOnSmallStack(const std::function<void()>& work,
                            std::size_t stack_bytes = kSmallStackBytes) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const auto run = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, run,
                           const_cast<std::function<void()>*>(&work)),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

/// Parses or fails the test.
inline std::unique_ptr<ParsedProgram> ParseOrDie(std::string_view text) {
  auto result = ParseProgram(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

/// True if `instance` contains a fact over the relation named `rel` whose
/// data arguments are the given constants (by spelling) and whose interval
/// is `iv`. Positions holding "_" match any value.
inline bool HasConcreteFact(const ConcreteInstance& instance,
                            const Universe& u, std::string_view rel,
                            const std::vector<std::string>& data,
                            const Interval& iv) {
  auto rel_id = instance.schema().Find(rel);
  if (!rel_id.ok()) return false;
  bool found = false;
  for (const FactView fact : instance.facts().facts(*rel_id)) {
    if (fact.interval() != iv) continue;
    if (fact.arity() != data.size() + 1) continue;
    bool match = true;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data[i] == "_") continue;
      if (u.Render(fact.arg(i)) != data[i]) {
        match = false;
        break;
      }
    }
    if (match) found = true;
  }
  return found;
}

/// Counts facts of a relation.
inline std::size_t CountFacts(const ConcreteInstance& instance,
                              std::string_view rel) {
  auto rel_id = instance.schema().Find(rel);
  if (!rel_id.ok()) return 0;
  return instance.facts().facts(*rel_id).size();
}

}  // namespace tdx::testing

#endif  // TDX_TESTS_TEST_UTIL_H_
