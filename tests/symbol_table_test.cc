#include "src/common/symbol_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tdx {
namespace {

TEST(SymbolTableTest, InternReturnsStableIds) {
  SymbolTable table;
  const SymbolId a = table.Intern("Ada");
  const SymbolId b = table.Intern("Bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("Ada"), a);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, SpellingRoundTrips) {
  SymbolTable table;
  const SymbolId id = table.Intern("IBM");
  EXPECT_EQ(table.Spelling(id), "IBM");
}

TEST(SymbolTableTest, LookupDoesNotIntern) {
  SymbolTable table;
  SymbolId out = 0;
  EXPECT_FALSE(table.Lookup("missing", &out));
  EXPECT_EQ(table.size(), 0u);
  const SymbolId id = table.Intern("x");
  EXPECT_TRUE(table.Lookup("x", &out));
  EXPECT_EQ(out, id);
}

TEST(SymbolTableTest, EmptyStringIsInternable) {
  SymbolTable table;
  const SymbolId id = table.Intern("");
  EXPECT_EQ(table.Spelling(id), "");
  EXPECT_EQ(table.Intern(""), id);
}

// Regression guard for the SSO-dangling-view hazard: ids and spellings must
// survive heavy growth (reallocation of any backing storage).
TEST(SymbolTableTest, SpellingsSurviveGrowth) {
  SymbolTable table;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(table.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(table.Spelling(ids[i]), "sym" + std::to_string(i));
    SymbolId out = 0;
    ASSERT_TRUE(table.Lookup("sym" + std::to_string(i), &out));
    EXPECT_EQ(out, ids[i]);
  }
}

TEST(SymbolTableTest, IdsFollowFirstAppearance) {
  SymbolTable table;
  EXPECT_EQ(table.Intern("b"), 0u);
  EXPECT_EQ(table.Intern("a"), 1u);
  EXPECT_EQ(table.Intern("b"), 0u);
  EXPECT_EQ(table.Intern("c"), 2u);
}

// Spelling views point into the arena, which never moves a byte: a view
// taken early must still read right after the table grew well past its
// first chunk and slot table, and after the table itself moved.
TEST(SymbolTableTest, SpellingViewsOutliveGrowthAndMoves) {
  SymbolTable table;
  const std::string_view first = table.Spelling(table.Intern("first"));
  const std::string long_spelling(100000, 'x');
  const SymbolId long_id = table.Intern(long_spelling);
  for (int i = 0; i < 50000; ++i) {
    table.Intern("symbol-number-" + std::to_string(i));
  }
  EXPECT_EQ(first, "first");
  EXPECT_EQ(table.Spelling(long_id), long_spelling);

  SymbolTable moved = std::move(table);
  EXPECT_EQ(first, "first");
  EXPECT_EQ(moved.size(), 50002u);
  EXPECT_EQ(moved.Intern("first"), 0u);
  EXPECT_EQ(moved.Intern(long_spelling), long_id);
  SymbolId out = 0;
  ASSERT_TRUE(moved.Lookup("symbol-number-49999", &out));
  EXPECT_EQ(moved.Spelling(out), "symbol-number-49999");

  // The moved-from table is empty and usable.
  EXPECT_EQ(table.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(table.Lookup("first", &out));
  EXPECT_EQ(table.Intern("fresh"), 0u);
  EXPECT_EQ(moved.Spelling(0), "first");
}

}  // namespace
}  // namespace tdx
