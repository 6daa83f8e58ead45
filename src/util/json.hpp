// Minimal JSON support for machine-readable reports and checkpoints.
//
// The writer covers what the exporters need: objects, arrays, strings
// with escaping, numbers and booleans, rendered compactly and
// deterministically in insertion order.  The reader (JsonValue +
// parse_json) is the counterpart used by checkpoint/resume: a small DOM
// that parses exactly the documents the writer produces (plus ordinary
// hand-written JSON).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace sce::util {

/// Escape and quote a string for JSON.
std::string json_quote(const std::string& s);

/// Render a double the way JSON expects (finite; NaN/inf become null).
std::string json_number(double value);

/// Render a double with enough digits to round-trip bit-exactly through
/// parse_json (checkpoints rely on this for resumed-run reproducibility).
std::string json_number_exact(double value);

/// Streaming writer with explicit begin/end calls; validates nesting.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object (must be followed by a value or container).
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  /// Double rendered via json_number_exact (bit-exact round trip).
  JsonWriter& value_exact(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);

  /// Final document; throws if containers remain open.
  std::string str() const;

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void comma_if_needed();

  std::ostringstream out_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool expecting_value_ = false;
};

/// Parsed JSON document node.  Objects preserve key insertion order (the
/// writer emits them that way, and checkpoints are diffed as text).
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< number checked to be integral
  const std::string& as_string() const;
  const Array& items() const;    ///< array elements
  const Object& members() const; ///< object key/value pairs

  /// Array element access with bounds checking.
  const JsonValue& at(std::size_t index) const;
  /// Object member access; throws InvalidArgument if the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// Object member lookup; nullptr if the key is absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Elements of an array / members of an object; 0 otherwise.
  std::size_t size() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Deepest container nesting parse_json accepts.  The parser recurses
/// once per '[' or '{', so a bound is what keeps a hostile document (a
/// protocol frame may be 64 MiB) from overflowing the stack; every
/// document this project writes nests far less deeply.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse a complete JSON document; throws InvalidArgument on malformed
/// input, trailing garbage, or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

}  // namespace sce::util
