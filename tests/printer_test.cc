#include "src/parser/printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::ParseOrDie;

TEST(PrinterTest, RendersRelationTableWithHeader) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    target T(name);
    tgd E(n, c) -> T(n);
    fact E("Ada", "IBM") @ [2012, 2014);
  )");
  const RelationId e_plus = *program->schema.Find("E+");
  const std::string table = RenderRelationTable(
      program->source.facts(), e_plus, program->universe);
  EXPECT_NE(table.find("E+"), std::string::npos);
  EXPECT_NE(table.find("name"), std::string::npos);
  EXPECT_NE(table.find("company"), std::string::npos);
  EXPECT_NE(table.find("Ada"), std::string::npos);
  EXPECT_NE(table.find("[2012, 2014)"), std::string::npos);
}

TEST(PrinterTest, EmptyRelationRendersEmpty) {
  auto program = ParseOrDie(R"(
    source E(name);
    target T(name);
    tgd E(n) -> T(n);
  )");
  const RelationId e_plus = *program->schema.Find("E+");
  EXPECT_TRUE(RenderRelationTable(program->source.facts(), e_plus,
                                  program->universe)
                  .empty());
}

TEST(PrinterTest, ColumnsAreAligned) {
  auto program = ParseOrDie(R"(
    source E(name, company);
    target T(name);
    tgd E(n, c) -> T(n);
    fact E("Ada", "IBM") @ [0, 5);
    fact E("Wilhelmina", "International") @ [0, 5);
  )");
  const RelationId e_plus = *program->schema.Find("E+");
  const std::string table = RenderRelationTable(
      program->source.facts(), e_plus, program->universe);
  // Every data line has "IBM"/"International" starting at the same column.
  const std::size_t col1 = table.find("Ada");
  const std::size_t col2 = table.find("Wilhelmina");
  ASSERT_NE(col1, std::string::npos);
  ASSERT_NE(col2, std::string::npos);
  const std::size_t line1_start = table.rfind('\n', col1) + 1;
  const std::size_t line2_start = table.rfind('\n', col2) + 1;
  EXPECT_EQ(col1 - line1_start, col2 - line2_start);
}

TEST(PrinterTest, ConcreteInstanceListsAllNonEmptyRelations) {
  auto program = ParseOrDie(testing::kPaperProgram);
  const std::string out =
      RenderConcreteInstance(program->source, program->universe);
  EXPECT_NE(out.find("E+"), std::string::npos);
  EXPECT_NE(out.find("S+"), std::string::npos);
  EXPECT_EQ(out.find("Emp+"), std::string::npos);  // empty target relation
}

TEST(PrinterTest, AbstractInstanceShowsSpans) {
  auto program = ParseOrDie(testing::kPaperProgram);
  auto ia = AbstractInstance::FromConcrete(program->source);
  ASSERT_TRUE(ia.ok());
  const std::string out = RenderAbstractInstance(*ia, program->universe);
  EXPECT_NE(out.find("[2012, 2013):"), std::string::npos);
  EXPECT_NE(out.find("[2018, inf):"), std::string::npos);
  EXPECT_NE(out.find("E(Ada, IBM)"), std::string::npos);
  EXPECT_NE(out.find("(empty)"), std::string::npos);  // the [0, 2012) piece
}

TEST(PrinterTest, AnswersRenderSorted) {
  Universe u;
  // Constants sort by interning order, so "a" (interned first) precedes
  // "b" regardless of the order answers arrive in.
  const Value a = u.Constant("a");
  const Value b = u.Constant("b");
  std::vector<Tuple> answers = {
      {b, Value::OfInterval(Interval(0, 2))},
      {a, Value::OfInterval(Interval(1, 3))},
  };
  const std::string out = RenderAnswers(answers, u);
  EXPECT_LT(out.find("(a, [1, 3))"), out.find("(b, [0, 2))"));
}

// The table sorts row positions under packed keys; its row order must be
// that of sorted Fact copies whatever the values: constants interned out
// of spelling order, labeled nulls, one annotated null under several
// annotations, and interval values, in every column.
TEST(PrinterTest, TableRowsFollowSortedFactOrder) {
  Schema schema;
  const RelationId r =
      *schema.AddRelation("R", {"a", "b", "c"}, SchemaRole::kTarget);
  Universe u;
  std::vector<Value> pool;
  for (const char* name : {"m", "b", "z", "a"}) {
    pool.push_back(u.Constant(name));
  }
  pool.push_back(u.FreshNull());
  pool.push_back(u.FreshNull());
  const Value annotated = u.FreshAnnotatedNull(Interval(0, 9));
  pool.push_back(annotated);
  pool.push_back(annotated.Reannotated(Interval(2, 4)));
  pool.push_back(Value::OfInterval(Interval(1, 3)));
  pool.push_back(Value::OfInterval(Interval(1, kTimeInfinity)));

  std::mt19937 rng(7);
  Instance instance(&schema);
  for (int i = 0; i < 300; ++i) {
    instance.Insert(r, {pool[rng() % pool.size()], pool[rng() % pool.size()],
                        pool[rng() % pool.size()]});
  }
  std::vector<Fact> sorted;
  instance.ForEach([&](FactView f) { sorted.push_back(f.ToFact()); });
  std::sort(sorted.begin(), sorted.end());

  // Compare the data lines with spaces removed (padding and the spaces
  // inside rendered intervals alike).
  const auto squeeze = [](std::string text) {
    text.erase(std::remove(text.begin(), text.end(), ' '), text.end());
    return text;
  };
  std::istringstream table(RenderRelationTable(instance, r, u));
  std::string line;
  std::getline(table, line);  // relation name
  std::getline(table, line);  // header
  for (const Fact& fact : sorted) {
    ASSERT_TRUE(std::getline(table, line));
    std::string expected;
    for (const Value& v : fact.args()) expected += u.Render(v);
    EXPECT_EQ(squeeze(line), squeeze(expected));
  }
  EXPECT_FALSE(std::getline(table, line));
}

}  // namespace
}  // namespace tdx
