#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace sce::util {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string json_number_exact(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonWriter::comma_if_needed() {
  if (expecting_value_) return;  // value after a key: no comma
  if (stack_.empty()) return;
  if (first_in_scope_.back()) {
    first_in_scope_.back() = false;
  } else {
    out_ << ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  expecting_value_ = false;
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject)
    throw InvalidArgument("JsonWriter: mismatched end_object");
  out_ << '}';
  stack_.pop_back();
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  expecting_value_ = false;
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray)
    throw InvalidArgument("JsonWriter: mismatched end_array");
  out_ << ']';
  stack_.pop_back();
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != Scope::kObject)
    throw InvalidArgument("JsonWriter: key outside object");
  if (expecting_value_)
    throw InvalidArgument("JsonWriter: key after key");
  comma_if_needed();
  out_ << json_quote(name) << ':';
  expecting_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string(v));
}

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value_exact(double v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << json_number_exact(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_if_needed();
  expecting_value_ = false;
  out_ << (v ? "true" : "false");
  return *this;
}

std::string JsonWriter::str() const {
  if (!stack_.empty())
    throw InvalidArgument("JsonWriter: unclosed containers");
  return out_.str();
}

// --- JsonValue accessors -------------------------------------------------

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw InvalidArgument("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw InvalidArgument("JsonValue: not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double n = as_number();
  const auto i = static_cast<std::int64_t>(n);
  if (static_cast<double>(i) != n)
    throw InvalidArgument("JsonValue: number is not integral");
  return i;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw InvalidArgument("JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::items() const {
  if (type_ != Type::kArray) throw InvalidArgument("JsonValue: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::members() const {
  if (type_ != Type::kObject)
    throw InvalidArgument("JsonValue: not an object");
  return object_;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  const Array& a = items();
  if (index >= a.size())
    throw InvalidArgument("JsonValue: array index out of range");
  return a[index];
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw InvalidArgument("JsonValue: missing key \"" + key + "\"");
  return *v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

// --- Recursive-descent parser -------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size())
      throw InvalidArgument("parse_json: trailing characters at offset " +
                            std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("parse_json: " + what + " at offset " +
                          std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return JsonValue(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return JsonValue(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape digit");
          }
          // UTF-8 encode the code point (surrogate pairs are not needed
          // for the writer's output, which only \u-escapes control chars).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // containers open around pos_
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace sce::util
