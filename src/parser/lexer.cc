#include "src/parser/lexer.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

namespace tdx {

namespace {

bool IsDigit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentCont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '+';
}

// The single-character tokens, and their kinds position by position.
constexpr std::string_view kPunctuation = "()[,;:&=@";
constexpr TokenKind kPunctuationKinds[] = {
    TokenKind::kLParen, TokenKind::kRParen,    TokenKind::kLBracket,
    TokenKind::kComma,  TokenKind::kSemicolon, TokenKind::kColon,
    TokenKind::kAmp,    TokenKind::kEquals,    TokenKind::kAt};

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

Status Lexer::Fail(Token* token, std::string what) {
  status_ = Status::ParseError(std::move(what) + " at line " +
                               std::to_string(line_) + ", column " +
                               std::to_string(column_));
  *token = Token{TokenKind::kEnd, {}, line_, column_};
  return status_;
}

Status Lexer::Next(Token* token) {
  if (!status_.ok()) {
    *token = Token{TokenKind::kEnd, {}, line_, column_};
    return status_;
  }
  // Whitespace and comments. Only these can span lines: no token contains
  // a newline, so past this loop the column simply advances by the token's
  // length.
  while (pos_ < input_.size()) {
    const char c = input_[pos_];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else if (c == ' ' || c == '\t' || c == '\r') {
      ++column_;
    } else if (c == '#') {
      const std::size_t eol = std::min(input_.find('\n', pos_), input_.size());
      column_ += eol - pos_;
      pos_ = eol;
      continue;
    } else {
      break;
    }
    ++pos_;
  }
  if (pos_ == input_.size()) {
    *token = Token{TokenKind::kEnd, {}, line_, column_};
    return Status::OK();
  }

  const char c = input_[pos_];
  TokenKind kind;
  std::size_t length = 1;
  if (const std::size_t p = kPunctuation.find(c);
      p != std::string_view::npos) {
    kind = kPunctuationKinds[p];
  } else if (c == '-' && input_.substr(pos_ + 1, 1) == ">") {
    kind = TokenKind::kArrow;
    length = 2;
  } else if (c == '"') {
    const std::size_t close = input_.find_first_of("\"\n", pos_ + 1);
    if (close == std::string_view::npos || input_[close] != '"') {
      return Fail(token, "unterminated string literal");
    }
    kind = TokenKind::kString;
    length = close + 1 - pos_;
  } else if (IsDigit(c)) {
    kind = TokenKind::kNumber;
    while (pos_ + length < input_.size() && IsDigit(input_[pos_ + length])) {
      ++length;
    }
  } else if (IsIdentStart(c)) {
    kind = TokenKind::kIdentifier;
    while (pos_ + length < input_.size() &&
           IsIdentCont(input_[pos_ + length])) {
      ++length;
    }
  } else {
    return Fail(token, std::string("unexpected character '") + c + "'");
  }
  std::string_view text = input_.substr(pos_, length);
  if (kind == TokenKind::kString) text = text.substr(1, length - 2);
  *token = Token{kind, text, line_, column_};
  pos_ += length;
  column_ += length;
  if (++count_ > max_tokens_) {
    return Fail(token, "token count exceeds the limit of " +
                           std::to_string(max_tokens_) + " tokens");
  }
  return Status::OK();
}

}  // namespace tdx
