// String formatting helpers shared by logs, error messages and benches.
#pragma once

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rapid {

namespace detail {

/// Appends `v` as `std::ostream << v` would print it. Strings, chars and
/// integers (the bulk of object and task names) skip the stream.
template <typename T>
void cat_one(std::string& out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.append(std::string_view(v));
  } else if constexpr (std::is_same_v<T, char>) {
    out.push_back(v);
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                       !std::is_same_v<T, signed char> &&
                       !std::is_same_v<T, unsigned char>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += os.str();
  }
}

}  // namespace detail

/// Concatenates stream-printable arguments into a std::string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::string out;
  (detail::cat_one(out, args), ...);
  return out;
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
