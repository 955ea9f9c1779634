// A minimal JSON document model with a parser and a writer.
//
// The observability layer speaks JSON at its edges: the Tracer emits
// Chrome-trace-format files, the MetricsRegistry emits a stable-schema
// snapshot, and tools/tdx_bench_diff consumes google-benchmark output. None
// of those needs a streaming or schema-validating library — they need a
// small document tree that round-trips faithfully and fails loudly on
// malformed input. Object member order is preserved (google-benchmark files
// are diffed textually in CI, so re-emitting must not shuffle keys).
//
// Numbers are stored as double plus the original literal text; integers up
// to 2^53 round-trip exactly, which covers every counter the benchmarks and
// metrics emit.

#ifndef TDX_OBS_JSON_H_
#define TDX_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace tdx::obs {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;

/// One JSON value. A tagged union kept deliberately simple: arrays and
/// objects own their children by value.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b) {
    Json j;
    j.kind_ = Kind::kBool;
    j.bool_ = b;
    return j;
  }
  static Json Number(double value);
  /// Number carrying its exact source literal (the parser uses this so
  /// re-emitted documents match their input byte for byte).
  static Json NumberLiteral(double value, std::string literal);
  /// Integer-valued number emitted without a decimal point.
  static Json Int(std::int64_t value);
  static Json Uint(std::uint64_t value);
  static Json Str(std::string value) {
    Json j;
    j.kind_ = Kind::kString;
    j.string_ = std::move(value);
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(number_); }
  const std::string& as_string() const { return string_; }

  JsonArray& items() { return items_; }
  const JsonArray& items() const { return items_; }
  std::vector<JsonMember>& members() { return members_; }
  const std::vector<JsonMember>& members() const { return members_; }

  /// Appends to an array value.
  void Append(Json value) { items_.push_back(std::move(value)); }
  /// Sets (or replaces) an object member, preserving first-set order.
  void Set(std::string_view key, Json value);
  /// Member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Serializes the value. `indent` > 0 pretty-prints with that many spaces
  /// per level; 0 emits the compact one-line form.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string number_text_;  ///< exact literal, when built from one
  std::string string_;
  JsonArray items_;
  std::vector<JsonMember> members_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Beyond strict JSON, a number may be NaN, Infinity or -Infinity, as
/// google-benchmark writes non-finite statistics; Dump re-emits them as
/// written. Errors carry a byte offset.
Result<Json> ParseJson(std::string_view text);

}  // namespace tdx::obs

#endif  // TDX_OBS_JSON_H_
