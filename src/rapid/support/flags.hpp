// Tiny command-line flag parser for the bench and example binaries.
// Supports --name=value and --name value; unknown flags are an error so
// typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rapid {

class Flags {
 public:
  /// Registers a flag with a default and a help line. Must be called before
  /// parse(). Returns *this for chaining.
  Flags& define(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Throws rapid::Error on unknown flags or missing values.
  /// Recognizes --help: prints usage and sets help_requested().
  void parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }

  bool defined(const std::string& name) const;
  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Comma-separated integer list, e.g. --procs=2,4,8.
  std::vector<std::int64_t> get_int_list(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  bool help_requested_ = false;
};

}  // namespace rapid
