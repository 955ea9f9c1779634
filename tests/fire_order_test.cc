// The st phase fires full st-tgds before existential ones (Datalog-first,
// ChaseRun::Begin in src/relational/chase_run.cc). That was a one-time
// change to the canonical c-chase output, so the `tdx_cli chase` and
// `tdx_cli query` stdout of every shipped example under the earlier
// declaration-order st phase is pinned in tests/golden/st_declaration_order/
// (<program>.chase.txt, <program>.<query>.query.txt). This test holds the
// current output to them:
//   * each solution is abstractly equivalent (Corollary 20's "~") to the
//     declaration-order one, and has no more facts and no more nulls;
//   * where no full rule witnesses an existential one (flights, strata) the
//     solution is byte-identical;
//   * every query's certain answers are byte-identical.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cchase.h"
#include "src/core/certain.h"
#include "src/core/query.h"
#include "src/parser/parser.h"
#include "src/parser/printer.h"
#include "src/temporal/abstract_hom.h"
#include "src/temporal/abstract_instance.h"
#include "tests/test_util.h"

#ifndef TDX_REPO_DIR
#define TDX_REPO_DIR "."
#endif

namespace tdx {
namespace {

using ::tdx::testing::ParseOrDie;
using ::tdx::testing::ReadFileOrDie;

/// Splits a table row on its column separators: runs of two or more
/// spaces (a cell such as "[2012, 2013)" holds single spaces only).
std::vector<std::string> SplitCells(std::string_view row) {
  std::vector<std::string> cells;
  std::size_t pos = row.find_first_not_of(' ');
  while (pos != std::string_view::npos) {
    std::size_t end = row.find("  ", pos);
    if (end == std::string_view::npos) end = row.size();
    cells.emplace_back(row.substr(pos, end - pos));
    pos = row.find_first_not_of(' ', end);
  }
  return cells;
}

/// "[s, e)" with e possibly "inf".
Interval ParseInterval(const std::string& cell) {
  EXPECT_TRUE(cell.size() > 4 && cell.front() == '[' && cell.back() == ')')
      << cell;
  const std::size_t comma = cell.find(", ");
  const TimePoint start = std::stoull(cell.substr(1, comma - 1));
  const std::string end = cell.substr(comma + 2, cell.size() - comma - 3);
  return Interval(start, end == "inf" ? kTimeInfinity : std::stoull(end));
}

/// Reads RenderConcreteInstance's text back into an instance over `schema`.
/// Annotated nulls print as N<k>^[s, e); each distinct N<k> becomes a fresh
/// null of `universe` named N<k>. They are minted in ascending k, so the
/// parsed nulls sort among themselves as the printed ones did, and the
/// instance renders back to `text`.
ConcreteInstance ParseTables(const std::string& text, const Schema& schema,
                             Universe* universe) {
  struct Row {
    RelationId rel;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows;
  std::set<std::uint64_t> null_numbers;
  std::istringstream lines(text);
  std::string line;
  RelationId rel = 0;
  bool header = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] != ' ') {
      auto found = schema.Find(line);
      EXPECT_TRUE(found.ok()) << line;
      rel = *found;
      header = true;
      continue;
    }
    if (header) {  // the column names
      header = false;
      continue;
    }
    Row row{rel, SplitCells(line)};
    EXPECT_EQ(row.cells.size(), schema.relation(rel).arity()) << line;
    for (const std::string& cell : row.cells) {
      if (cell.size() > 1 && cell[0] == 'N' && cell.find('^') != cell.npos) {
        null_numbers.insert(std::stoull(cell.substr(1, cell.find('^') - 1)));
      }
    }
    rows.push_back(std::move(row));
  }
  std::map<std::uint64_t, NullId> nulls;
  for (std::uint64_t k : null_numbers) {
    nulls[k] = universe->FreshNull("N" + std::to_string(k)).null_id();
  }
  ConcreteInstance instance(&schema);
  for (const Row& row : rows) {
    std::vector<Value> data;
    for (std::size_t i = 0; i + 1 < row.cells.size(); ++i) {
      const std::string& cell = row.cells[i];
      const std::size_t caret = cell.find('^');
      if (cell.size() > 1 && cell[0] == 'N' && caret != cell.npos) {
        data.push_back(Value::AnnotatedNull(
            nulls.at(std::stoull(cell.substr(1, caret - 1))),
            ParseInterval(cell.substr(caret + 1))));
      } else {
        data.push_back(universe->Constant(cell));
      }
    }
    EXPECT_TRUE(
        instance.Add(row.rel, std::move(data), ParseInterval(row.cells.back()))
            .ok());
  }
  return instance;
}

std::size_t DistinctNulls(const ConcreteInstance& instance) {
  std::set<NullId> ids;
  instance.facts().ForEach([&](FactView fact) {
    for (const Value& v : fact.args()) {
      if (v.is_annotated_null()) ids.insert(v.null_id());
    }
  });
  return ids.size();
}

struct Example {
  const char* name;
  /// Every printed row, null names included, is unchanged.
  bool identical;
};

void PrintTo(const Example& example, std::ostream* os) { *os << example.name; }

class DeclarationOrderTest : public ::testing::TestWithParam<Example> {
 protected:
  std::string Golden(const std::string& suffix) const {
    return ReadFileOrDie(std::string(TDX_REPO_DIR) +
                         "/tests/golden/st_declaration_order/" +
                         GetParam().name + "." + suffix);
  }

  std::unique_ptr<ParsedProgram> Program() const {
    return ParseOrDie(ReadFileOrDie(std::string(TDX_REPO_DIR) +
                                    "/examples/programs/" + GetParam().name +
                                    ".tdx"));
  }
};

TEST_P(DeclarationOrderTest, SolutionIsEquivalentAndNoLarger) {
  auto program = Program();
  auto chase = CChase(program->source, program->lifted, &program->universe);
  ASSERT_TRUE(chase.ok()) << chase.status();
  ASSERT_EQ(chase->kind, ChaseResultKind::kSuccess);
  const std::string now =
      RenderConcreteInstance(chase->target, program->universe);

  const std::string before = Golden("chase.txt");
  const ConcreteInstance old_solution =
      ParseTables(before, chase->target.schema(), &program->universe);
  // The parse read every row and cell of the pinned table.
  ASSERT_EQ(RenderConcreteInstance(old_solution, program->universe), before);

  auto now_abstract = AbstractInstance::FromConcrete(chase->target);
  auto old_abstract = AbstractInstance::FromConcrete(old_solution);
  ASSERT_TRUE(now_abstract.ok()) << now_abstract.status();
  ASSERT_TRUE(old_abstract.ok()) << old_abstract.status();
  EXPECT_TRUE(AreAbstractEquivalent(*now_abstract, *old_abstract));
  EXPECT_LE(chase->target.size(), old_solution.size());
  EXPECT_LE(DistinctNulls(chase->target), DistinctNulls(old_solution));
  if (GetParam().identical) {
    EXPECT_EQ(now, before);
  }
}

TEST_P(DeclarationOrderTest, CertainAnswersAreByteIdentical) {
  auto program = Program();
  ASSERT_FALSE(program->queries.empty());
  for (const UnionQuery& query : program->queries) {
    auto lifted = LiftUnionQuery(query, program->schema);
    ASSERT_TRUE(lifted.ok()) << lifted.status();
    auto result = CertainAnswers(*lifted, program->source, program->lifted,
                                 &program->universe);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->chase_kind, ChaseResultKind::kSuccess);
    EXPECT_EQ(RenderAnswers(result->answers, program->universe),
              Golden(query.name + ".query.txt"))
        << query.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, DeclarationOrderTest,
                         ::testing::Values(Example{"paper", false},
                                           Example{"medical", false},
                                           Example{"flights", true},
                                           Example{"strata", true}),
                         [](const ::testing::TestParamInfo<Example>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace tdx
