#include "rapid/support/str.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "rapid/support/check.hpp"

namespace rapid {

std::string fixed(double value, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", digits, value);
  return std::string(buf.data());
}

std::string pct(double ratio, int digits) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%+.*f%%", digits, ratio * 100.0);
  return std::string(buf.data());
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string human_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  while (std::abs(bytes) >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return fixed(bytes, unit == 0 ? 0 : 2) + " " + kUnits[unit];
}

std::int64_t parse_int(std::string_view text, std::string_view what,
                       std::string_view context) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw Error(cat(what, " expects an integer, got \"", text, "\"",
                    context));
  }
  return v;
}

}  // namespace rapid
