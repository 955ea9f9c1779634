// Parser robustness: a deterministic mutation sweep over the shipped
// programs (examples/programs/*.tdx and any .tdx under tests/golden/).
// Every source is byte-flipped, token-spliced, truncated, and has each
// numeral replaced by boundary and oversized values; each mutant goes
// through ParseProgram under tight ParseLimits and must parse or come back
// as a kParseError that names a line — never a crash, a hang, or UB (the
// ASan+UBSan CI job runs this binary too).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/parser/lexer.h"
#include "src/parser/parser.h"

#ifndef TDX_REPO_DIR
#define TDX_REPO_DIR "."
#endif

namespace tdx {
namespace {

struct Source {
  std::string name;
  std::string text;
};

std::vector<Source> Sources() {
  std::vector<Source> sources;
  for (const char* dir : {"/examples/programs", "/tests/golden"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(TDX_REPO_DIR) + dir)) {
      if (entry.path().extension() != ".tdx") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      sources.push_back(
          Source{entry.path().filename().string(),
                 std::string(std::istreambuf_iterator<char>(in), {})});
    }
  }
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) { return a.name < b.name; });
  return sources;
}

/// Byte ranges [begin, end) of the tokens of a well-formed `text`.
struct Span {
  std::size_t begin;
  std::size_t end;
  TokenKind kind;
};
std::vector<Span> TokenSpans(const std::string& text) {
  std::vector<Span> spans;
  Lexer lexer(text, ParseLimits{});
  Token token;
  while (lexer.Next(&token).ok() && token.kind != TokenKind::kEnd) {
    std::size_t begin = static_cast<std::size_t>(token.text.data() -
                                                 text.data());
    std::size_t end = begin + token.text.size();
    if (token.kind == TokenKind::kString) {  // the quotes are the token's too
      --begin;
      ++end;
    }
    spans.push_back(Span{begin, end, token.kind});
  }
  return spans;
}

/// Limits just above what `text` needs, so mutants that grow it run into
/// them: 64 bytes of slack, no spare token, no nested operators.
ParseLimits TightLimits(const std::string& text, std::size_t tokens) {
  ParseLimits limits;
  limits.max_input_bytes = text.size() + 64;
  limits.max_tokens = tokens;
  limits.max_nesting_depth = 1;
  limits.max_atom_terms = 8;
  return limits;
}

std::vector<std::string> Mutants(const std::string& text,
                                 const std::vector<Span>& spans) {
  std::vector<std::string> out;
  // Byte flips: every byte with its 0x20 bit toggled (case, space vs. NUL,
  // '(' vs. backspace), and every byte replaced by a structural character.
  static constexpr char kBytes[] = {'"', '\n', '(', ')', ',', ';', '[', '@',
                                    '#', '-',  '_', '9', ':', '&', '\xff'};
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string flipped = text;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    out.push_back(std::move(flipped));
    std::string replaced = text;
    replaced[i] = kBytes[i % sizeof(kBytes)];
    out.push_back(std::move(replaced));
  }
  // Token splices: drop each token, double it, and copy it over a token
  // further on; truncation at every token boundary.
  const auto cut = [&](std::size_t begin, std::size_t end,
                       std::string_view with) {
    return text.substr(0, begin) + std::string(with) + text.substr(end);
  };
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    const std::string_view token(text.data() + s.begin, s.end - s.begin);
    const Span& other = spans[(k * 7 + 3) % spans.size()];
    out.push_back(cut(s.begin, s.end, ""));
    out.push_back(cut(s.begin, s.begin, std::string(token) + " "));
    out.push_back(cut(other.begin, other.end, token));
    out.push_back(text.substr(0, s.begin));
    out.push_back(text.substr(0, s.end));
  }
  // Numerals: 0, 2^64 - 2 (the last finite time point), 2^64 - 1 (the
  // infinity sentinel), 2^64, a 30-digit value, and one past the input cap.
  const std::string kNumerals[] = {
      "0", "18446744073709551614", "18446744073709551615",
      "18446744073709551616", std::string(30, '9'), std::string(200, '7')};
  for (const Span& s : spans) {
    if (s.kind != TokenKind::kNumber) continue;
    for (const std::string& numeral : kNumerals) {
      out.push_back(cut(s.begin, s.end, numeral));
    }
  }
  return out;
}

bool Contains(const std::string& haystack, std::string_view needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ParserMutationTest, SourcesParseUnderTheirTightLimits) {
  const std::vector<Source> sources = Sources();
  ASSERT_GE(sources.size(), 4u);
  for (const Source& source : sources) {
    const std::vector<Span> spans = TokenSpans(source.text);
    auto parsed =
        ParseProgram(source.text, TightLimits(source.text, spans.size()));
    EXPECT_TRUE(parsed.ok()) << source.name << ": " << parsed.status();
  }
}

TEST(ParserMutationTest, EveryMutantParsesOrFailsWithALine) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  // Rejections the sweep must reach, so that it keeps covering each
  // limit and the endpoint checks.
  std::size_t over_tokens = 0;
  std::size_t over_bytes = 0;
  std::size_t out_of_range = 0;
  std::size_t sentinel = 0;
  for (const Source& source : Sources()) {
    const std::vector<Span> spans = TokenSpans(source.text);
    const ParseLimits limits = TightLimits(source.text, spans.size());
    for (const std::string& mutant : Mutants(source.text, spans)) {
      auto parsed = ParseProgram(mutant, limits);
      if (parsed.ok()) {
        ++accepted;
        continue;
      }
      ++rejected;
      const Status& status = parsed.status();
      const std::string& message = status.message();
      ASSERT_EQ(status.code(), StatusCode::kParseError)
          << source.name << " mutant:\n" << mutant << "\n" << status;
      ASSERT_TRUE(Contains(message, "line "))
          << source.name << " mutant:\n" << mutant << "\n" << status;
      over_tokens += Contains(message, "token count exceeds the limit");
      over_bytes += Contains(message, "bytes exceeds the limit");
      out_of_range += Contains(message, "is out of range");
      sentinel += Contains(message, "is the infinity sentinel");
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(over_tokens, 0u);
  EXPECT_GT(over_bytes, 0u);
  EXPECT_GT(out_of_range, 0u);
  EXPECT_GT(sentinel, 0u);
}

}  // namespace
}  // namespace tdx
