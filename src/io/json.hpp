#pragma once
/// \file json.hpp
/// The JSON string escaper (RFC 8259) shared by every JSON writer in the
/// repo: the obs metrics/trace exporters, the churn-trace writer and the
/// bench artifacts.

#include <cstdio>
#include <string>
#include <string_view>

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

}  // namespace localspan::io
