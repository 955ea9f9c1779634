#include "src/common/value.h"

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace tdx {
namespace {

TEST(ValueTest, ConstantIdentity) {
  Universe u;
  const Value ada1 = u.Constant("Ada");
  const Value ada2 = u.Constant("Ada");
  const Value bob = u.Constant("Bob");
  EXPECT_EQ(ada1, ada2);
  EXPECT_NE(ada1, bob);
  EXPECT_TRUE(ada1.is_constant());
  EXPECT_FALSE(ada1.is_any_null());
}

TEST(ValueTest, FreshNullsAreDistinct) {
  Universe u;
  const Value n1 = u.FreshNull();
  const Value n2 = u.FreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(n1.is_null());
  EXPECT_TRUE(n1.is_any_null());
  EXPECT_FALSE(n1.is_annotated_null());
}

TEST(ValueTest, AnnotatedNullIdentityIncludesAnnotation) {
  Universe u;
  const Value n = u.FreshAnnotatedNull(Interval(0, 5));
  const Value same(Value::AnnotatedNull(n.null_id(), Interval(0, 5)));
  const Value other_span(Value::AnnotatedNull(n.null_id(), Interval(0, 3)));
  EXPECT_EQ(n, same);
  EXPECT_NE(n, other_span);
  EXPECT_TRUE(n.is_annotated_null());
  EXPECT_TRUE(n.is_any_null());
}

TEST(ValueTest, ReannotatedKeepsNullId) {
  Universe u;
  const Value n = u.FreshAnnotatedNull(Interval(0, 5));
  const Value frag = n.Reannotated(Interval(0, 2));
  EXPECT_EQ(frag.null_id(), n.null_id());
  EXPECT_EQ(frag.interval(), Interval(0, 2));
}

TEST(ValueTest, IntervalValues) {
  const Value iv = Value::OfInterval(Interval(3, 7));
  EXPECT_TRUE(iv.is_interval());
  EXPECT_EQ(iv.interval(), Interval(3, 7));
  EXPECT_EQ(iv, Value::OfInterval(Interval(3, 7)));
  EXPECT_NE(iv, Value::OfInterval(Interval(3, 8)));
}

TEST(ValueTest, KindsNeverCompareEqual) {
  Universe u;
  const Value c = u.Constant("x");
  const Value n = u.FreshNull();
  const Value a = u.FreshAnnotatedNull(Interval(0, 1));
  const Value iv = Value::OfInterval(Interval(0, 1));
  EXPECT_NE(c, n);
  EXPECT_NE(c, a);
  EXPECT_NE(c, iv);
  EXPECT_NE(n, a);
  EXPECT_NE(n, iv);
  EXPECT_NE(a, iv);
}

TEST(ValueTest, HashConsistentWithEquality) {
  Universe u;
  ValueHash hash;
  const Value a1 = u.Constant("Ada");
  const Value a2 = u.Constant("Ada");
  EXPECT_EQ(hash(a1), hash(a2));
  const Value n = u.FreshAnnotatedNull(Interval(2, 9));
  EXPECT_EQ(hash(n), hash(Value::AnnotatedNull(n.null_id(), Interval(2, 9))));
}

// Section 4.1: proj_l(N^[s,e)) = N_l — deterministic, distinct per l, and
// annotation-independent for fragments of the same null.
TEST(ProjectionTest, DeterministicPerTimePoint) {
  Universe u;
  const Value n = u.FreshAnnotatedNull(Interval(8, kTimeInfinity));
  const Value n8a = u.ProjectNull(n, 8);
  const Value n8b = u.ProjectNull(n, 8);
  const Value n9 = u.ProjectNull(n, 9);
  EXPECT_EQ(n8a, n8b);
  EXPECT_NE(n8a, n9);
  EXPECT_TRUE(n8a.is_null());
}

TEST(ProjectionTest, FragmentsProjectOntoSameSequence) {
  Universe u;
  const Value n = u.FreshAnnotatedNull(Interval(0, 10));
  const Value left = n.Reannotated(Interval(0, 5));
  const Value right = n.Reannotated(Interval(5, 10));
  EXPECT_EQ(u.ProjectNull(left, 4), u.ProjectNull(n, 4));
  EXPECT_EQ(u.ProjectNull(right, 7), u.ProjectNull(n, 7));
}

TEST(ProjectionTest, DistinctNullsProjectDistinctly) {
  Universe u;
  const Value n = u.FreshAnnotatedNull(Interval(0, 10));
  const Value m = u.FreshAnnotatedNull(Interval(0, 10));
  EXPECT_NE(u.ProjectNull(n, 3), u.ProjectNull(m, 3));
}

TEST(RenderTest, RendersEveryKind) {
  Universe u;
  EXPECT_EQ(u.Render(u.Constant("Ada")), "Ada");
  const Value n = u.FreshNull("N");
  EXPECT_EQ(u.Render(n), "N");
  const Value m = u.FreshAnnotatedNull("M", Interval(8, kTimeInfinity));
  EXPECT_EQ(u.Render(m), "M^[8, inf)");
  EXPECT_EQ(u.Render(Value::OfInterval(Interval(1, 2))), "[1, 2)");
}

TEST(RenderTest, GeneratedNullNames) {
  Universe u;
  const Value n0 = u.FreshNull();
  const Value n1 = u.FreshNull();
  EXPECT_EQ(u.Render(n0), "N0");
  EXPECT_EQ(u.Render(n1), "N1");
}

TEST(RenderTest, ProjectedNullNameMentionsTimePoint) {
  Universe u;
  const Value m = u.FreshAnnotatedNull("M", Interval(3, 6));
  EXPECT_EQ(u.Render(u.ProjectNull(m, 4)), "M_4");
}

TEST(ValueOrderTest, TotalOrderIsStrict) {
  Universe u;
  std::vector<Value> values = {
      u.Constant("b"), u.Constant("a"), u.FreshNull(),
      u.FreshAnnotatedNull(Interval(0, 2)), Value::OfInterval(Interval(1, 4)),
  };
  std::sort(values.begin(), values.end());
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_TRUE(values[i - 1] < values[i] || values[i - 1] == values[i]);
    EXPECT_FALSE(values[i] < values[i - 1]);
  }
}

// The packed layout keeps the (kind, id, interval) order, equality and hash
// of a value: checked against a plain tuple model for every kind at the
// smallest id, an id past 32 bits and the largest id the kind bits leave
// (constants stop at the largest 32-bit symbol id).
TEST(ValueOrderTest, PackedIdsKeepOrderEqualityAndHash) {
  constexpr std::uint64_t kMaxId = Value::kIdLimit - 1;
  struct Model {
    int kind;
    std::uint64_t id;
    TimePoint start;
    TimePoint end;
    auto Key() const { return std::tie(kind, id, start, end); }
  };
  std::vector<std::pair<Value, Model>> values;
  const std::vector<Interval> intervals = {Interval(0, 1), Interval(0, 2),
                                           Interval(5, kTimeInfinity)};
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{0xFFFFFFFF}}) {
    values.push_back({Value::Constant(static_cast<SymbolId>(id)),
                      Model{0, id, 0, 1}});
  }
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{1} << 32,
                                 kMaxId}) {
    values.push_back({Value::Null(id), Model{1, id, 0, 1}});
    for (const Interval& iv : intervals) {
      values.push_back({Value::AnnotatedNull(id, iv),
                        Model{2, id, iv.start(), iv.end()}});
    }
  }
  for (const Interval& iv : intervals) {
    values.push_back(
        {Value::OfInterval(iv), Model{3, 0, iv.start(), iv.end()}});
  }

  for (const auto& [v, m] : values) {
    EXPECT_EQ(static_cast<int>(v.kind()), m.kind);
    if (v.is_constant()) {
      EXPECT_EQ(v.symbol(), m.id);
    }
    if (v.is_any_null()) {
      EXPECT_EQ(v.null_id(), m.id);
    }
    if (v.is_annotated_null()) {
      const Value moved = v.Reannotated(Interval(7, 9));
      EXPECT_EQ(moved.null_id(), m.id);
      EXPECT_EQ(moved.interval(), Interval(7, 9));
    }
    for (const auto& [w, n] : values) {
      EXPECT_EQ(v == w, m.Key() == n.Key());
      EXPECT_EQ(v < w, m.Key() < n.Key());
      if (v == w) {
        EXPECT_EQ(v.Hash(), w.Hash());
      }
    }
  }
  // Equal values built apart hash alike.
  EXPECT_EQ(Value::AnnotatedNull(kMaxId, Interval(0, 2)).Hash(),
            Value::AnnotatedNull(kMaxId, Interval(0, 2)).Hash());
  EXPECT_EQ(Value::Null(std::uint64_t{1} << 32).Hash(),
            Value::Null(std::uint64_t{1} << 32).Hash());
}

}  // namespace
}  // namespace tdx
