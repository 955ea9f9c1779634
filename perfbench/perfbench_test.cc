#include <gtest/gtest.h>

#include "perfbench/layers.h"
#include "perfbench/programs.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"

namespace tdx::perf {
namespace {

const SpanTime& At(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  EXPECT_NE(it, table.end()) << name;
  static const SpanTime kMissing;
  return it == table.end() ? kMissing : it->second;
}

// Thread 0:  run [0,100) > parse [0,10), chase [10,90) > round [20,50)
//                                                     > round [50,60)
//            render [90,100) is a child of run, sibling of chase.
// Thread 1 (a pool worker, no enclosing span on its thread):
//            snap [30,70) > step [40,45); snap [70,80).
TEST(AggregateSpans, SelfTimeSubtractsSameThreadChildrenOnly) {
  const std::vector<Span> spans = {
      {"snap", 70, 10, 1},   {"round", 50, 10, 0}, {"run", 0, 100, 0},
      {"render", 90, 10, 0}, {"step", 40, 5, 1},   {"chase", 10, 80, 0},
      {"snap", 30, 40, 1},   {"parse", 0, 10, 0},  {"round", 20, 30, 0},
  };
  const SpanTable table = AggregateSpans(spans);
  EXPECT_EQ(At(table, "run").total_us, 100u);
  EXPECT_EQ(At(table, "run").self_us, 0u);  // parse + chase + render
  EXPECT_EQ(At(table, "chase").self_us, 40u);
  EXPECT_EQ(At(table, "round").total_us, 40u);
  EXPECT_EQ(At(table, "round").self_us, 40u);
  EXPECT_EQ(At(table, "round").count, 2u);
  EXPECT_EQ(At(table, "parse").self_us, 10u);
  EXPECT_EQ(At(table, "render").self_us, 10u);
  // Worker spans overlap `chase` in time but are not its children.
  EXPECT_EQ(At(table, "snap").total_us, 50u);
  EXPECT_EQ(At(table, "snap").self_us, 45u);
  EXPECT_EQ(At(table, "step").self_us, 5u);
  EXPECT_DOUBLE_EQ(SelfSeconds(table, "chase"), 40e-6);
  EXPECT_DOUBLE_EQ(TotalSeconds(table, "absent"), 0.0);
}

TEST(AggregateSpans, SpanStartingAtItsSiblingsEndIsNotItsChild) {
  const SpanTable table =
      AggregateSpans({{"a", 0, 10, 0}, {"b", 10, 5, 0}, {"outer", 0, 20, 0}});
  EXPECT_EQ(At(table, "a").self_us, 10u);
  EXPECT_EQ(At(table, "b").self_us, 5u);
  EXPECT_EQ(At(table, "outer").self_us, 5u);
}

TEST(ParseChromeTrace, ReadsTheTracersOwnOutput) {
  obs::Tracer tracer;
  {
    obs::ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("outer");
    { TDX_TRACE_SPAN("inner"); }
  }
  auto spans = ParseChromeTrace(tracer.ToChromeTraceJson());
  ASSERT_TRUE(spans.ok()) << spans.status();
  ASSERT_EQ(spans->size(), 2u);
  const SpanTable table = AggregateSpans(*spans);
  EXPECT_EQ(At(table, "outer").self_us + At(table, "inner").total_us,
            At(table, "outer").total_us);
}

TEST(ParseChromeTrace, RejectsMalformedEvents) {
  EXPECT_FALSE(ParseChromeTrace("{}").ok());
  EXPECT_FALSE(
      ParseChromeTrace(R"({"traceEvents":[{"ph":"X","name":"a"}]})").ok());
  auto skipped = ParseChromeTrace(R"({"traceEvents":[{"ph":"M"}]})");
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->empty());
}

TEST(GenerateProgram, SameSeedSameBytesOtherSeedOtherBytes) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    auto a = GenerateProgram(workload, 7, true);
    auto b = GenerateProgram(workload, 7, true);
    auto c = GenerateProgram(workload, 8, true);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_NE(*a, *c);
    auto shape = ShapeOf(workload);
    ASSERT_TRUE(shape.ok());
    EXPECT_NE(a->find("query " + shape->query + "("), std::string::npos);
    EXPECT_EQ(shape->points.size(), 32u);
  }
  EXPECT_FALSE(GenerateProgram("nope", 1, true).ok());
}

TEST(GenerateProgram, FullSizeProgramsFitTheDefaultParseLimits) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    auto text = GenerateProgram(workload, 1, false);
    ASSERT_TRUE(text.ok());
    auto parsed = ParseProgram(*text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
  }
}

}  // namespace
}  // namespace tdx::perf
