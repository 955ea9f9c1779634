#include "src/relational/schema.h"

#include <gtest/gtest.h>

namespace tdx {
namespace {

TEST(SchemaTest, AddAndFindRelation) {
  Schema schema;
  auto id = schema.AddRelation("E", {"name", "company"}, SchemaRole::kSource);
  ASSERT_TRUE(id.ok());
  auto found = schema.Find("E");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *id);
  const RelationSchema& rel = schema.relation(*id);
  EXPECT_EQ(rel.name, "E");
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_EQ(rel.data_arity(), 2u);
  EXPECT_FALSE(rel.temporal);
}

TEST(SchemaTest, TemporalRelationAppendsT) {
  Schema schema;
  auto id = schema.AddTemporalRelation("E+", {"name", "company"},
                                       SchemaRole::kSource);
  ASSERT_TRUE(id.ok());
  const RelationSchema& rel = schema.relation(*id);
  EXPECT_TRUE(rel.temporal);
  EXPECT_EQ(rel.arity(), 3u);
  EXPECT_EQ(rel.data_arity(), 2u);
  EXPECT_EQ(rel.attributes.back(), "T");
  EXPECT_EQ(rel.temporal_position(), 2u);
}

TEST(SchemaTest, RelationPairLinksTwins) {
  Schema schema;
  auto conc = schema.AddRelationPair("E", {"name", "company"},
                                     SchemaRole::kSource);
  ASSERT_TRUE(conc.ok());
  EXPECT_TRUE(schema.relation(*conc).temporal);
  EXPECT_EQ(schema.relation(*conc).name, "E+");

  auto snap = schema.TwinOf(*conc);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(schema.relation(*snap).temporal);
  EXPECT_EQ(schema.relation(*snap).name, "E");
  auto back = schema.TwinOf(*snap);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *conc);
}

TEST(SchemaTest, DuplicateNameRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", {"a"}, SchemaRole::kSource).ok());
  auto dup = schema.AddRelation("E", {"b"}, SchemaRole::kSource);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, EmptyNameAndAttributesRejected) {
  Schema schema;
  EXPECT_EQ(schema.AddRelation("", {"a"}, SchemaRole::kSource).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.AddRelation("R", {}, SchemaRole::kSource).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, FindMissingIsNotFound) {
  Schema schema;
  EXPECT_EQ(schema.Find("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, TwinOfUnpairedIsNotFound) {
  Schema schema;
  auto id = schema.AddRelation("E", {"a"}, SchemaRole::kSource);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(schema.TwinOf(*id).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tdx
