#include "src/parser/parser.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace tdx {
namespace {

using ::tdx::testing::HasConcreteFact;
using ::tdx::testing::ParseOrDie;

TEST(ParserTest, ParsesThePaperProgram) {
  auto program = ParseOrDie(testing::kPaperProgram);
  EXPECT_EQ(program->mapping.st_tgds.size(), 2u);
  EXPECT_EQ(program->mapping.egds.size(), 1u);
  EXPECT_EQ(program->lifted.st_tgds.size(), 2u);
  EXPECT_EQ(program->source.size(), 5u);
  EXPECT_EQ(program->queries.size(), 1u);
  EXPECT_TRUE(program->source.Validate().ok());
  EXPECT_TRUE(program->source.IsComplete());
  EXPECT_TRUE(HasConcreteFact(program->source, program->universe, "E+",
                              {"Ada", "IBM"}, Interval(2012, 2014)));
  EXPECT_TRUE(HasConcreteFact(program->source, program->universe, "S+",
                              {"Bob", "13k"}, Interval::FromStart(2015)));
}

TEST(ParserTest, TgdStructure) {
  auto program = ParseOrDie(testing::kPaperProgram);
  const Tgd& sigma1 = program->mapping.st_tgds[0];
  EXPECT_EQ(sigma1.label, "sigma1");
  EXPECT_EQ(sigma1.body.atoms.size(), 1u);
  EXPECT_EQ(sigma1.head.atoms.size(), 1u);
  EXPECT_EQ(sigma1.existential.size(), 1u);
  const Tgd& sigma2 = program->mapping.st_tgds[1];
  EXPECT_EQ(sigma2.body.atoms.size(), 2u);
  EXPECT_TRUE(sigma2.existential.empty());
}

TEST(ParserTest, LiftedMappingHasTemporalVars) {
  auto program = ParseOrDie(testing::kPaperProgram);
  for (const Tgd& tgd : program->lifted.st_tgds) {
    ASSERT_TRUE(tgd.temporal_var.has_value());
    for (const Atom& atom : tgd.body.atoms) {
      EXPECT_TRUE(program->schema.relation(atom.rel).temporal);
    }
  }
  ASSERT_EQ(program->lifted.egds.size(), 1u);
  EXPECT_TRUE(program->lifted.egds[0].temporal_var.has_value());
}

TEST(ParserTest, EgdEqualityVariables) {
  auto program = ParseOrDie(testing::kPaperProgram);
  const Egd& egd = program->mapping.egds[0];
  EXPECT_NE(egd.x1, egd.x2);
  EXPECT_EQ(egd.body.var_names[egd.x1], "s");
  EXPECT_EQ(egd.body.var_names[egd.x2], "s2");
}

TEST(ParserTest, AnonymousVariablesAreFresh) {
  auto program = ParseOrDie(R"(
    source E(a, b);
    target T(a, b);
    tgd E(x, y) -> T(x, y);
    query q(x): T(x, _) & T(_, x);
  )");
  const ConjunctiveQuery& q = program->queries[0].disjuncts[0];
  // x plus two distinct anonymous variables.
  EXPECT_EQ(q.body.num_vars, 3u);
}

TEST(ParserTest, NumbersAreConstants) {
  auto program = ParseOrDie(R"(
    source E(a);
    target T(a);
    tgd E(x) -> T(x);
    fact E(42) @ [0, 5);
  )");
  EXPECT_TRUE(HasConcreteFact(program->source, program->universe, "E+",
                              {"42"}, Interval(0, 5)));
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto r1 = ParseProgram("source E(a;");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line 1"), std::string::npos);

  auto r2 = ParseProgram("bogus X;");
  EXPECT_FALSE(r2.ok());
}

TEST(ParserTest, UnknownRelationInAtomFails) {
  auto r = ParseProgram(R"(
    source E(a);
    target T(a);
    tgd Nope(x) -> T(x);
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Nope"), std::string::npos);
}

TEST(ParserTest, ArityMismatchFails) {
  auto r = ParseProgram(R"(
    source E(a, b);
    target T(a);
    tgd E(x) -> T(x);
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, WrongRoleFails) {
  auto r = ParseProgram(R"(
    source E(a);
    target T(a);
    tgd T(x) -> E(x);
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, EmptyIntervalFails) {
  auto r = ParseProgram(R"(
    source E(a);
    target T(a);
    tgd E(x) -> T(x);
    fact E("x") @ [5, 5);
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, FactsMustBeGround) {
  auto r = ParseProgram(R"(
    source E(a);
    target T(a);
    tgd E(x) -> T(x);
    fact E(x) @ [0, 5);
  )");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, DuplicateQueryNamesFormUnion) {
  auto program = ParseOrDie(R"(
    source A(x);
    source B(x);
    target Ta(x);
    target Tb(x);
    tgd A(x) -> Ta(x);
    tgd B(x) -> Tb(x);
    query u(x): Ta(x);
    query u(x): Tb(x);
  )");
  ASSERT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->queries[0].disjuncts.size(), 2u);
  EXPECT_TRUE(program->FindQuery("u").ok());
  EXPECT_FALSE(program->FindQuery("v").ok());
}

TEST(ParserTest, ExistentialListMultipleVars) {
  auto program = ParseOrDie(R"(
    source E(a);
    target T(a, b, c);
    tgd E(x) -> exists y, z: T(x, y, z);
  )");
  EXPECT_EQ(program->mapping.st_tgds[0].existential.size(), 2u);
}

// ---------------------------------------------------------------------------
// Hardening against pathological inputs (ParseLimits). Every rejection is a
// kParseError carrying a position, never a crash or a hang.
// ---------------------------------------------------------------------------

TEST(ParserHardeningTest, TenMegabyteInputIsRejected) {
  // A single huge atom: "source E(" + 10 MB of junk. The size gate fires
  // before tokenization even starts.
  std::string text = "source E(";
  text.append(10u << 20, 'a');
  text += ");";
  auto parsed = ParseProgram(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("exceeds the limit"),
            std::string::npos);
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos);
}

TEST(ParserHardeningTest, RaisedInputLimitAdmitsLargeInput) {
  std::string text = "source E(x);\n";
  while (text.size() < (9u << 20)) text += "# padding comment line\n";
  ParseLimits limits;
  limits.max_input_bytes = 16u << 20;
  auto parsed = ParseProgram(text, limits);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(ParserHardeningTest, TokenBudgetIsEnforced) {
  ParseLimits limits;
  limits.max_tokens = 5;
  auto parsed = ParseProgram("source E(x, y, z);", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("token count exceeds the limit"),
            std::string::npos);
}

TEST(ParserHardeningTest, DeeplyNestedParensAreRejectedNotCrashed) {
  // 10k-deep operator nesting. The grammar rejects nested temporal
  // operators, so this must come back as a parse error after O(1) descent —
  // the test's job is proving there is no unbounded recursion.
  std::string body;
  for (int i = 0; i < 10000; ++i) body += "once_past(";
  body += "E(x)";
  for (int i = 0; i < 10000; ++i) body += ")";
  const std::string text =
      "source E(x);\ntarget T(x);\ntgd " + body + " -> T(x);";
  auto parsed = ParseProgram(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(ParserHardeningTest, NestingDepthLimitIsEnforced) {
  ParseLimits limits;
  limits.max_nesting_depth = 0;
  auto parsed = ParseProgram(
      "source E(x);\ntarget T(x);\ntgd once_past(E(x)) -> T(x);", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("atom nesting exceeds the limit"),
            std::string::npos);
}

TEST(ParserHardeningTest, AtomTermLimitIsEnforced) {
  ParseLimits limits;
  limits.max_atom_terms = 2;
  auto parsed = ParseProgram(
      "source E(a, b, c);\ntarget T(a);\ntgd E(x, y, z) -> T(x);", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("exceeds the limit"),
            std::string::npos);
}

TEST(ParserHardeningTest, FactArgumentLimitIsEnforced) {
  ParseLimits limits;
  limits.max_atom_terms = 2;
  auto parsed = ParseProgram(
      "source E(a, b, c);\nfact E(\"1\", \"2\", \"3\") @ [0, 5);", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(ParserHardeningTest, EmptyIntervalIsAParseError) {
  // The checked Interval::Make factory guards the trust boundary: an empty
  // interval in the text format must surface as a parse error, not an
  // assertion failure.
  auto parsed = ParseProgram("source E(x);\nfact E(\"a\") @ [5, 5);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("empty interval"),
            std::string::npos);
}

TEST(ParserHardeningTest, ReversedIntervalIsAParseError) {
  auto parsed = ParseProgram("source E(x);\nfact E(\"a\") @ [7, 3);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

// Interval endpoints are read with std::from_chars: a numeral past 2^64 - 1
// is rejected instead of wrapping (this one used to read as [4, 14)).
TEST(ParserHardeningTest, EndpointPast2To64IsAParseError) {
  auto parsed = ParseProgram(
      "source E(x);\n"
      "fact E(\"a\") @ [18446744073709551620, 18446744073709551630);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_EQ(parsed.status().message(),
            "interval endpoint 18446744073709551620 is out of range at line "
            "2, column 16");
}

// 2^64 - 1 is kTimeInfinity: a finite end spelled that way used to read as
// an unbounded one.
TEST(ParserHardeningTest, FiniteEndpointAtInfinityIsAParseError) {
  auto parsed = ParseProgram(
      "source E(x);\nfact E(\"a\") @ [3, 18446744073709551615);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_EQ(parsed.status().message(),
            "interval endpoint 18446744073709551615 is the infinity sentinel; "
            "write 'inf' for an unbounded end at line 2, column 19");
}

TEST(ParserHardeningTest, NumericFactConstantsKeepTheirSpelling) {
  auto parsed = ParseProgram(
      "source E(x);\nfact E(007) @ [0, 1);\n"
      "fact E(18446744073709551620) @ [0, 1);");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ParsedProgram& p = **parsed;
  EXPECT_TRUE(
      HasConcreteFact(p.source, p.universe, "E+", {"007"}, Interval(0, 1)));
  EXPECT_TRUE(HasConcreteFact(p.source, p.universe, "E+",
                              {"18446744073709551620"}, Interval(0, 1)));
}

// The lexer is pulled as the parser goes, so of several errors the first
// in the input is reported; a lone lexical error keeps its message.
TEST(ParserHardeningTest, FirstErrorInInputOrderIsReported) {
  auto parsed = ParseProgram("source E(x);\nbogus;\nfact E($);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "unknown statement keyword 'bogus' at line 2, column 1 (got "
            "identifier 'bogus')");
  parsed = ParseProgram("source E(x);\nfact E($);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "unexpected character '$' at line 2, column 8");
}

// Rejections from the schema and the instance are parse errors that name
// the statement, like every other one.
TEST(ParserHardeningTest, SemanticRejectionsArePositionedParseErrors) {
  auto parsed = ParseProgram("source E(x);\nfact F(\"a\") @ [0, 1);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_EQ(parsed.status().message(),
            "no relation named 'F' at line 2, column 6");
  parsed = ParseProgram("source E(x);\nsource E(y);");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("line 2, column 1"),
            std::string::npos);
}

TEST(ParserHardeningTest, DefaultLimitsAdmitThePaperProgram) {
  EXPECT_TRUE(ParseProgram(testing::kPaperProgram).ok());
}

}  // namespace
}  // namespace tdx
