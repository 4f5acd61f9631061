// JSON string escaping, shared by every JSON the library writes: trace
// exports, sanitizer reports and the bench drivers' case-error lines.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace vsparse {

/// `s` as the body of a JSON string literal: `"` and `\` are
/// backslash-escaped, newline and tab become `\n` and `\t`, every other
/// byte below 0x20 becomes `\u00XX`, and all other bytes (UTF-8
/// included) pass through unchanged.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace vsparse
