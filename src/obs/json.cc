#include "src/obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

namespace tdx::obs {

Json Json::Number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  return j;
}

Json Json::NumberLiteral(double value, std::string literal) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  j.number_text_ = std::move(literal);
  return j;
}

Json Json::Int(std::int64_t value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = static_cast<double>(value);
  j.number_text_ = std::to_string(value);
  return j;
}

Json Json::Uint(std::uint64_t value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = static_cast<double>(value);
  j.number_text_ = std::to_string(value);
  return j;
}

void Json::Set(std::string_view key, Json value) {
  for (JsonMember& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const JsonMember& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

namespace {

void EscapeInto(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NewlineIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kNumber: {
      if (!number_text_.empty()) {
        out->append(number_text_);
        return;
      }
      if (std::floor(number_) == number_ && std::abs(number_) < 9.0e15) {
        out->append(std::to_string(static_cast<std::int64_t>(number_)));
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      out->append(buf);
      return;
    }
    case Kind::kString:
      EscapeInto(string_, out);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        NewlineIndent(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      NewlineIndent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        NewlineIndent(out, indent, depth + 1);
        EscapeInto(members_[i].first, out);
        out->append(indent > 0 ? ": " : ":");
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      NewlineIndent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    TDX_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      TDX_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::Str(std::move(s));
    }
    if (ConsumeWord("true")) return Json::Bool(true);
    if (ConsumeWord("false")) return Json::Bool(false);
    if (ConsumeWord("null")) return Json::Null();
    return ParseNumber();
  }

  Result<Json> ParseNumber() {
    const std::size_t start = pos_;
    // google-benchmark writes a non-finite statistic, such as the cv of a
    // counter whose mean is 0, as one of these bare words.
    for (const auto& [word, value] :
         {std::pair<std::string_view, double>{
              "NaN", std::numeric_limits<double>::quiet_NaN()},
          {"Infinity", std::numeric_limits<double>::infinity()},
          {"-Infinity", -std::numeric_limits<double>::infinity()}}) {
      if (ConsumeWord(word)) {
        return Json::NumberLiteral(value, std::string(word));
      }
    }
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view literal = text_.substr(start, pos_ - start);
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(literal.data(), literal.data() + literal.size(), value);
    if (ec != std::errc() || ptr != literal.data() + literal.size()) {
      pos_ = start;
      return Error("invalid number literal '" + std::string(literal) + "'");
    }
    // Keep the literal so integers re-emit exactly as they were written.
    return Json::NumberLiteral(value, std::string(literal));
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by anything we parse; pass them through as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error(std::string("invalid escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseArray(int depth) {
    Consume('[');
    Json array = Json::Array();
    SkipSpace();
    if (Consume(']')) return array;
    while (true) {
      TDX_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipSpace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseObject(int depth) {
    Consume('{');
    Json object = Json::Object();
    SkipSpace();
    if (Consume('}')) return object;
    while (true) {
      SkipSpace();
      TDX_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      TDX_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      object.Set(key, std::move(value));
      SkipSpace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace tdx::obs
