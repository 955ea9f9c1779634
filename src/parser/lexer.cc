#include "src/parser/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

namespace tdx {

namespace {

// Byte classes, one table lookup per byte. A byte may carry several flags
// (a digit also continues an identifier); a punctuation byte carries its
// single-character token kind.
enum : std::uint8_t {
  kBlank = 1,       ///< ' ', '\t', '\r' (newlines are counted apart)
  kDigit = 2,       ///< 0-9
  kIdentStart = 4,  ///< A-Z a-z _
  kIdentCont = 8,   ///< identifier start, digits, and '+'
  kPunct = 16,      ///< ( ) [ , ; : & = @
};

struct ByteClass {
  std::uint8_t flags = 0;
  TokenKind punct = TokenKind::kEnd;  ///< the token of a kPunct byte
};

constexpr std::array<ByteClass, 256> kByteClasses = [] {
  std::array<ByteClass, 256> table{};
  for (const char c : {' ', '\t', '\r'}) {
    table[static_cast<unsigned char>(c)].flags = kBlank;
  }
  for (int c = '0'; c <= '9'; ++c) table[c].flags = kDigit | kIdentCont;
  for (int c = 'a'; c <= 'z'; ++c) table[c].flags = kIdentStart | kIdentCont;
  for (int c = 'A'; c <= 'Z'; ++c) table[c].flags = kIdentStart | kIdentCont;
  table['_'].flags = kIdentStart | kIdentCont;
  table['+'].flags = kIdentCont;
  const std::pair<char, TokenKind> punctuation[] = {
      {'(', TokenKind::kLParen},    {')', TokenKind::kRParen},
      {'[', TokenKind::kLBracket},  {',', TokenKind::kComma},
      {';', TokenKind::kSemicolon}, {':', TokenKind::kColon},
      {'&', TokenKind::kAmp},       {'=', TokenKind::kEquals},
      {'@', TokenKind::kAt}};
  for (const auto& [c, kind] : punctuation) {
    table[static_cast<unsigned char>(c)] = ByteClass{kPunct, kind};
  }
  return table;
}();

const ByteClass& ClassOf(char c) {
  return kByteClasses[static_cast<unsigned char>(c)];
}

}  // namespace

std::string_view TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kString:
      return "string";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kAmp:
      return "'&'";
    case TokenKind::kEquals:
      return "'='";
    case TokenKind::kAt:
      return "'@'";
    case TokenKind::kArrow:
      return "'->'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

Lexer::Lexer(std::string_view input, const ParseLimits& limits)
    : input_(input), max_tokens_(limits.max_tokens) {
  if (input.size() > limits.max_input_bytes) {
    status_ = Status::ParseError(
        "input of " + std::to_string(input.size()) +
        " bytes exceeds the limit of " +
        std::to_string(limits.max_input_bytes) + " bytes at line 1, column 1");
  }
}

void Lexer::Fail(Token* token, std::string what) {
  status_ = Status::ParseError(std::move(what) + " at line " +
                               std::to_string(line_) + ", column " +
                               std::to_string(column_));
  *token = Token{TokenKind::kEnd, {}, line_, column_};
}

bool Lexer::Read(Token* token) {
  if (!status_.ok()) {
    *token = Token{TokenKind::kEnd, {}, line_, column_};
    return false;
  }
  const char* const data = input_.data();
  const std::size_t size = input_.size();
  // Whitespace and comments. Only these can span lines: no token contains
  // a newline, so past this loop the column simply advances by the token's
  // length.
  std::size_t pos = pos_;
  while (pos < size) {
    const char c = data[pos];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else if (ClassOf(c).flags & kBlank) {
      ++column_;
    } else if (c == '#') {
      const std::size_t eol = std::min(input_.find('\n', pos), size);
      column_ += eol - pos;
      pos = eol;
      continue;
    } else {
      break;
    }
    ++pos;
  }
  pos_ = pos;
  if (pos == size) {
    *token = Token{TokenKind::kEnd, {}, line_, column_};
    return true;
  }

  const char c = data[pos];
  const ByteClass& cls = ClassOf(c);
  TokenKind kind;
  std::size_t end = pos + 1;
  std::size_t quote = 0;  // a string's text excludes its quotes
  if (cls.flags & kPunct) {
    kind = cls.punct;
  } else if (cls.flags & kIdentStart) {
    kind = TokenKind::kIdentifier;
    while (end < size && (ClassOf(data[end]).flags & kIdentCont)) ++end;
  } else if (c == '"') {
    while (end < size && data[end] != '"' && data[end] != '\n') ++end;
    if (end == size || data[end] != '"') {
      Fail(token, "unterminated string literal");
      return false;
    }
    kind = TokenKind::kString;
    ++end;
    quote = 1;
  } else if (cls.flags & kDigit) {
    kind = TokenKind::kNumber;
    while (end < size && (ClassOf(data[end]).flags & kDigit)) ++end;
  } else if (c == '-' && pos + 1 < size && data[pos + 1] == '>') {
    kind = TokenKind::kArrow;
    end = pos + 2;
  } else {
    Fail(token, std::string("unexpected character '") + c + "'");
    return false;
  }
  const std::size_t length = end - pos;
  token->kind = kind;
  token->text = std::string_view(data + pos + quote, length - 2 * quote);
  token->line = line_;
  token->column = column_;
  pos_ = end;
  column_ += length;
  if (++count_ > max_tokens_) {
    Fail(token, "token count exceeds the limit of " +
                    std::to_string(max_tokens_) + " tokens");
    return false;
  }
  return true;
}

}  // namespace tdx
