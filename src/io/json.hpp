#pragma once
/// \file json.hpp
/// The repo's one JSON string escaper (RFC 8259), shared by every JSON
/// writer (the obs metrics/trace exporters, the churn-trace writer and the
/// bench artifacts), and its one JSON reader: a strict little RFC-8259
/// parser producing a generic value tree, shared by the churn-trace reader
/// and the bench-artifact collector (tools/collect_bench.cpp).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace localspan::io {

/// Append `s` to `out` with quotes, backslashes and control characters
/// escaped: \n and \t as short escapes, other controls as \u00XX.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// `s` escaped for use inside a JSON string literal.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

/// One parsed JSON value. Object members keep their document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// The strict parser: `JsonParser(text).parse()` returns the document or
/// throws std::runtime_error naming the defect. Every writer in the repo
/// emits ASCII-only escapes, so a \u escape above 0x7f is rejected.
class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  [[nodiscard]] JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  [[noreturn]] static void fail(const std::string& what) { throw std::runtime_error(what); }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "' in JSON input");
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_container('}');
    if (c == '[') return parse_container(']');
    if (c != '"' && c != 't' && c != 'f' && c != 'n') return parse_number();
    JsonValue v;
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
      return v;
    }
    const std::string_view lit = c == 't' ? "true" : c == 'f' ? "false" : "null";
    if (text_.compare(pos_, lit.size(), lit) != 0) fail("bad literal");
    pos_ += lit.size();
    if (c != 'n') v.type = JsonValue::Type::kBool;
    v.boolean = c == 't';
    return v;
  }

  /// An object or an array: `close` ends it, members are comma-separated.
  JsonValue parse_container(char close) {
    expect(close == '}' ? '{' : '[');
    JsonValue v;
    v.type = close == '}' ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    if (peek() == close) {
      ++pos_;
      return v;
    }
    while (true) {
      if (close == ']') {
        v.array.push_back(parse_value());
      } else {
        if (peek() != '"') fail("object key must be a string");
        std::string key = parse_string();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
      }
      const char next = peek();
      ++pos_;
      if (next == close) return v;
      if (next != ',') {
        fail(std::string("expected ',' or '") + close + "' in " +
             (close == '}' ? "object" : "array"));
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
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
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          if (hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
            fail("bad hex digit in \\u escape");
          }
          const unsigned long code = std::stoul(hex, nullptr, 16);
          if (code >= 0x80) fail("non-ASCII \\u escape unsupported in traces");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape in string");
      }
    }
  }

  JsonValue parse_number() {
    // Enforce the RFC 8259 number grammar before converting: strtod alone
    // would also accept hex floats, leading '+', '.5', '1.' and "inf".
    const std::size_t start = pos_;
    std::size_t p = pos_;
    const auto digits = [&]() {
      const std::size_t from = p;
      while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') ++p;
      return p > from;
    };
    if (p < text_.size() && text_[p] == '-') ++p;
    if (p < text_.size() && text_[p] == '0') {
      ++p;  // a leading zero stands alone
    } else if (!digits()) {
      fail("malformed JSON value");
    }
    if (p < text_.size() && text_[p] == '.') {
      ++p;
      if (!digits()) fail("malformed number: digits required after '.'");
    }
    if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
      ++p;
      if (p < text_.size() && (text_[p] == '+' || text_[p] == '-')) ++p;
      if (!digits()) fail("malformed number: digits required in exponent");
    }
    // Convert exactly the validated token (strtod on the full tail could
    // consume more, e.g. "0x10" after the grammar stopped at "0").
    const std::string token = text_.substr(start, p - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed JSON value");
    if (!std::isfinite(d)) fail("number out of double range");
    pos_ = p;
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = d;
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace localspan::io
