// Small string helpers shared by the table printer and benchmarks.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mlsc {

/// Joins items with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& items,
                 const std::string& sep);

/// Splits on a single-character delimiter; no empty-trailing trimming.
std::vector<std::string> split(const std::string& s, char delim);

/// printf-style float formatting, e.g. format_double(0.12345, 3) == "0.123".
std::string format_double(double value, int precision);

/// Writes `s` as a JSON string literal: quoted, with quotes, backslashes
/// and all control characters (U+0000..U+001F) escaped.  The shared
/// emitter behind Table::print_json, the bench JSON documents and the
/// obs metrics/trace dumps.
void write_json_string(std::ostream& out, std::string_view s);

/// write_json_string into a returned string.
std::string json_quote(std::string_view s);

/// Formats a double as a JSON number token.  JSON has no NaN/Infinity,
/// so non-finite values render as `null`.
std::string json_number(double value);

/// Decodes a JSON string literal produced by write_json_string (used by
/// the round-trip tests; handles \uXXXX only for the control-character
/// range the emitter produces).  Throws Error on malformed input.
std::string json_unquote(std::string_view literal);

}  // namespace mlsc
