// Lexer for the tdx text format.
//
// The format covers everything the examples and tests need to state a data
// exchange setting the way the paper writes it:
//
//   source E(name, company);
//   target Emp(name, company, salary);
//   tgd sigma1: E(n, c) -> exists s: Emp(n, c, s);
//   egd  e1: Emp(n, c, s) & Emp(n, c, s2) -> s = s2;
//   fact E("Ada", "IBM") @ [2012, 2014);
//   fact E("Ada", "Intel") @ [2014, inf);
//   query q(n, s): Emp(n, _, s);
//
// Tokens: identifiers, quoted strings, unsigned integers, `inf`, and the
// punctuation ( ) [ , ; : & = @ -> plus end-of-input. Comments run from `#`
// to end of line.
//
// Pull contract. The lexer never materializes the token stream: the parser
// calls Next() once per token it consumes (plus at most one token of
// lookahead), so the front end holds two tokens whatever the input size.
//  * Token::text is a view into the input the Lexer was built over. It stays
//    valid exactly as long as that input does; callers that keep a name past
//    the input's lifetime copy it into a std::string.
//  * Limits are enforced as tokens are pulled: `max_input_bytes` before the
//    first token is read (at line 1, column 1), `max_tokens` when the token
//    one past the cap is read (at the position just after it).
//  * The first failure is sticky: every later Next() returns the same
//    status. Because the parser pulls tokens in input order and reports a
//    lexical error only once it reaches the offending token, the error a
//    program is rejected with is the first one in input order.

#ifndef TDX_PARSER_LEXER_H_
#define TDX_PARSER_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/common/resource.h"
#include "src/common/status.h"

namespace tdx {

enum class TokenKind {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_+]*
  kString,      ///< "..." (no escapes needed by the format)
  kNumber,      ///< unsigned decimal integer (spelling only; see ParseInterval)
  kLParen,      ///< (
  kRParen,      ///< )
  kLBracket,    ///< [
  kComma,       ///< ,
  kSemicolon,   ///< ;
  kColon,       ///< :
  kAmp,         ///< &
  kEquals,      ///< =
  kAt,          ///< @
  kArrow,       ///< ->
  kEnd,         ///< end of input
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// Identifier or number spelling, string contents without the quotes,
  /// punctuation as written; empty at end of input. Points into the input.
  std::string_view text;
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Hard caps on what the text-format front end will accept. The defaults
/// are far above anything a legitimate program needs but small enough that
/// a hostile input (multi-megabyte atom, pathologically nested operators)
/// is rejected with a structured kParseError instead of tying up the
/// process. All caps are configurable per call; kUnlimited disables one.
struct ParseLimits {
  std::size_t max_input_bytes = 8u << 20;  ///< whole-program size cap (8 MiB)
  std::size_t max_tokens = 2'000'000;      ///< token-stream length cap
  /// Temporal-operator nesting depth in atoms (the grammar itself only
  /// produces depth 2; the cap is a backstop for grammar growth).
  std::size_t max_nesting_depth = 64;
  std::size_t max_atom_terms = 4096;  ///< terms per atom / fact arguments
};

/// Pull lexer over a caller-owned input (see the contract above).
class Lexer {
 public:
  Lexer(std::string_view input, const ParseLimits& limits);

  /// Reads the next token into *token; at end of input, a kEnd token (and
  /// again on every later call). On failure returns a ParseError carrying
  /// line and column, and *token is a kEnd token at the failing position.
  Status Next(Token* token) { return Read(token) ? Status::OK() : status_; }

  /// Next without building a Status per token: false on failure, and
  /// status() holds the error.
  bool Read(Token* token);

  /// OK, or the first failure.
  const Status& status() const { return status_; }

 private:
  /// Records the failure and makes *token a kEnd token at the current
  /// position.
  void Fail(Token* token, std::string what);

  std::string_view input_;
  std::size_t max_tokens_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
  std::size_t count_ = 0;  ///< tokens read so far, end of input excluded
  Status status_;          ///< first failure, returned by every later Next
};

/// Debug name of a token kind ("identifier", "'('", ...).
std::string_view TokenKindName(TokenKind kind);

}  // namespace tdx

#endif  // TDX_PARSER_LEXER_H_
