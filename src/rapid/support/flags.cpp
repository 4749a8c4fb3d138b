#include "rapid/support/flags.hpp"

#include <cstdio>
#include <cstdlib>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid {

Flags& Flags::define(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  RAPID_CHECK(!specs_.count(name), cat("duplicate flag --", name));
  specs_[name] = Spec{default_value, help};
  return *this;
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    RAPID_CHECK(arg.rfind("--", 0) == 0, cat("expected --flag, got ", arg));
    arg = arg.substr(2);
    if (arg == "help") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      help_requested_ = true;
      return;
    }
    std::string name, value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      RAPID_CHECK(i + 1 < argc, cat("flag --", name, " needs a value"));
      value = argv[++i];
    }
    RAPID_CHECK(specs_.count(name), cat("unknown flag --", name));
    values_[name] = value;
  }
}

std::string Flags::get(const std::string& name) const {
  auto spec = specs_.find(name);
  RAPID_CHECK(spec != specs_.end(), cat("undefined flag --", name));
  auto it = values_.find(name);
  return it == values_.end() ? spec->second.default_value : it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return parse_int(get(name), cat("--", name));
}

double Flags::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  RAPID_CHECK(end && *end == '\0' && !v.empty(),
              cat("--", name, " expects a number, got '", v, "'"));
  return out;
}

bool Flags::defined(const std::string& name) const {
  return specs_.count(name) != 0;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  RAPID_FAIL(cat("--", name, " expects a boolean, got '", v, "'"));
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const auto& piece : split(get(name), ',')) {
    if (!piece.empty()) out.push_back(parse_int(piece, cat("--", name)));
  }
  return out;
}

std::string Flags::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    out += cat("  --", name, " (default: ", spec.default_value, ")\n      ",
               spec.help, "\n");
  }
  return out;
}

}  // namespace rapid
