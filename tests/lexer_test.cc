#include "src/parser/lexer.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/parser/parser.h"
#include "tests/test_util.h"

namespace tdx {
namespace {

/// Pulls every token of `input`, the final kEnd included; on a lexical error
/// returns the error and stops.
Result<std::vector<Token>> Pull(std::string_view input,
                                const ParseLimits& limits = {}) {
  Lexer lexer(input, limits);
  std::vector<Token> tokens;
  Token token;
  do {
    TDX_RETURN_IF_ERROR(lexer.Next(&token));
    tokens.push_back(token);
  } while (token.kind != TokenKind::kEnd);
  return tokens;
}

std::vector<TokenKind> Kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> out;
  for (const Token& t : tokens) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, TokenizesFactStatement) {
  auto tokens = Pull(R"(fact E("Ada", "IBM") @ [2012, 2014);)");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(Kinds(*tokens),
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kIdentifier,
                TokenKind::kLParen, TokenKind::kString, TokenKind::kComma,
                TokenKind::kString, TokenKind::kRParen, TokenKind::kAt,
                TokenKind::kLBracket, TokenKind::kNumber, TokenKind::kComma,
                TokenKind::kNumber, TokenKind::kRParen,
                TokenKind::kSemicolon, TokenKind::kEnd}));
  EXPECT_EQ((*tokens)[3].text, "Ada");
  EXPECT_EQ((*tokens)[9].text, "2012");
}

TEST(LexerTest, ArrowAndAmpersand) {
  auto tokens = Pull("E(n, c) & S(n, s) -> Emp(n, c, s)");
  ASSERT_TRUE(tokens.ok());
  bool has_arrow = false, has_amp = false;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kArrow) has_arrow = true;
    if (t.kind == TokenKind::kAmp) has_amp = true;
  }
  EXPECT_TRUE(has_arrow);
  EXPECT_TRUE(has_amp);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Pull("# a comment\nfoo # trailing\nbar");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // foo, bar, end
  EXPECT_EQ((*tokens)[0].text, "foo");
  EXPECT_EQ((*tokens)[1].text, "bar");
}

TEST(LexerTest, LineAndColumnTracking) {
  auto tokens = Pull("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1u);
  EXPECT_EQ((*tokens)[0].column, 1u);
  EXPECT_EQ((*tokens)[1].line, 2u);
  EXPECT_EQ((*tokens)[1].column, 3u);
}

TEST(LexerTest, UnterminatedStringFails) {
  auto tokens = Pull("fact E(\"Ada");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto tokens = Pull("a $ b");
  EXPECT_FALSE(tokens.ok());
}

TEST(LexerTest, InfIsAnIdentifier) {
  auto tokens = Pull("[2014, inf)");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[3].text, "inf");
}

TEST(LexerTest, IdentifiersMayContainPlus) {
  auto tokens = Pull("Emp+");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "Emp+");
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = Pull("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kEnd);
}

// Tokens carry spellings, not values: an interval endpoint's value is read
// by the parser, which accepts every finite time point below kTimeInfinity.
TEST(LexerTest, NumbersParseValue) {
  auto program =
      ParseProgram("source E(x);\nfact E(\"a\") @ [18446744073709551613, "
                   "18446744073709551614);");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_TRUE(testing::HasConcreteFact(
      (*program)->source, (*program)->universe, "E+", {"a"},
      Interval(18446744073709551613ull, 18446744073709551614ull)));
}

TEST(LexerTest, TextPointsIntoTheInput) {
  const std::string input = "fact E(\"Ada\")";
  auto tokens = Pull(input);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[3].text.data(), input.data() + 8);
}

TEST(LexerTest, FailureIsSticky) {
  Lexer lexer("a $ b", ParseLimits{});
  Token token;
  ASSERT_TRUE(lexer.Next(&token).ok());
  const Status first = lexer.Next(&token);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.message(), "unexpected character '$' at line 1, column 3");
  EXPECT_EQ(token.kind, TokenKind::kEnd);
  EXPECT_EQ(lexer.Next(&token).message(), first.message());
}

TEST(LexerTest, TokenBudgetCountsPulledTokens) {
  ParseLimits limits;
  limits.max_tokens = 2;
  Lexer lexer("a b c", limits);
  Token token;
  ASSERT_TRUE(lexer.Next(&token).ok());
  ASSERT_TRUE(lexer.Next(&token).ok());
  const Status third = lexer.Next(&token);
  EXPECT_EQ(third.message(),
            "token count exceeds the limit of 2 tokens at line 1, column 6");
  // The end of input is not a token against the budget.
  EXPECT_TRUE(Pull("a b", limits).ok());
}

}  // namespace
}  // namespace tdx
