#include "support/string_util.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/check.h"

namespace mlsc {

std::string join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::stringstream stream(s);
  std::string item;
  while (std::getline(stream, item, delim)) {
    out.push_back(item);
  }
  return out;
}

std::string format_double(double value, int precision) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
  return buf.data();
}

namespace {

/// Length of the valid UTF-8 sequence starting at s[i], or 0 when the
/// bytes there are not well-formed UTF-8 (overlong encodings, surrogate
/// code points, out-of-range leads and truncated tails all count as
/// invalid).
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto lead = static_cast<unsigned char>(s[i]);
  std::size_t len = 0;
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if ((lead & 0xF0) == 0xE0) {
    len = 3;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
  } else {
    return 0;
  }
  if (i + len > s.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) return 0;
  }
  const auto second = static_cast<unsigned char>(s[i + 1]);
  if (lead == 0xE0 && second < 0xA0) return 0;  // overlong 3-byte form
  if (lead == 0xED && second > 0x9F) return 0;  // UTF-16 surrogate range
  if (lead == 0xF0 && second < 0x90) return 0;  // overlong 4-byte form
  if (lead == 0xF4 && second > 0x8F) return 0;  // beyond U+10FFFF
  return len;
}

}  // namespace

void write_json_string(std::ostream& out, std::string_view s) {
  constexpr const char* kHex = "0123456789abcdef";
  out << '"';
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto ch = static_cast<unsigned char>(s[i]);
    switch (ch) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\b':
        out << "\\b";
        break;
      case '\f':
        out << "\\f";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\r':
        out << "\\r";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (ch < 0x20) {
          out << "\\u00" << kHex[(ch >> 4) & 0xF] << kHex[ch & 0xF];
        } else if (ch < 0x80) {
          out << s[i];
        } else if (const std::size_t len = utf8_sequence_length(s, i);
                   len > 0) {
          out << s.substr(i, len);
          i += len - 1;
        } else {
          // Invalid UTF-8 byte: substitute U+FFFD so the document stays
          // well-formed JSON instead of propagating the bad byte.
          out << "\\ufffd";
        }
    }
  }
  out << '"';
}

std::string json_quote(std::string_view s) {
  std::ostringstream out;
  write_json_string(out, s);
  return out.str();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // Shortest form that round-trips a double (C++17 guarantees 17
  // significant decimal digits suffice); trailing zeros are harmless.
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

std::string json_unquote(std::string_view literal) {
  MLSC_CHECK(literal.size() >= 2 && literal.front() == '"' &&
                 literal.back() == '"',
             "JSON string literal must be quoted");
  std::string out;
  out.reserve(literal.size() - 2);
  for (std::size_t i = 1; i + 1 < literal.size(); ++i) {
    const char c = literal[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    MLSC_CHECK(i + 2 < literal.size(), "dangling escape in JSON string");
    const char esc = literal[++i];
    switch (esc) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        MLSC_CHECK(i + 4 + 1 < literal.size(), "truncated \\u escape");
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          const char h = literal[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            MLSC_CHECK(false, "bad hex digit in \\u escape");
          }
        }
        MLSC_CHECK(code <= 0x7F, "json_unquote only decodes ASCII \\u escapes");
        out += static_cast<char>(code);
        break;
      }
      default:
        MLSC_CHECK(false, "unknown JSON escape \\" << esc);
    }
  }
  return out;
}

}  // namespace mlsc
