// String formatting helpers shared by logs, error messages and benches.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

/// Concatenates stream-printable arguments into a std::string.
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

/// Fixed-precision decimal rendering, e.g. fixed(3.14159, 2) == "3.14".
std::string fixed(double value, int digits);

/// Renders a ratio as a signed percentage, e.g. pct(0.123) == "+12.3%".
std::string pct(double ratio, int digits = 1);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep);

/// Human-readable byte count ("1.50 MB").
std::string human_bytes(double bytes);

/// The one strict base-10 integer parser for outside input: all of `text`,
/// no trailing characters, no overflow. Otherwise throws rapid::Error with
/// the plain message `<what> expects an integer, got "<text>"<context>`.
std::int64_t parse_int(std::string_view text, std::string_view what,
                       std::string_view context = {});

}  // namespace rapid
