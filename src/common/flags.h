// Minimal command-line flag parsing for bench binaries and examples.
//
// Supported syntax: --name=value, --name value, and bare --name for
// booleans. Unknown flags raise an error listing the registered names so
// bench invocations fail loudly rather than silently running the default
// configuration.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

namespace sqvae {

/// Registry + parser for a flat set of command-line flags.
class Flags {
 public:
  /// Registers a string flag with a default value and help text.
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  /// Registers an integer flag. parse() rejects a value below `min`.
  void add_int(const std::string& name, long long default_value,
               std::string help,
               long long min = std::numeric_limits<long long>::min());
  /// Registers a floating-point flag.
  void add_double(const std::string& name, double default_value,
                  std::string help);
  /// Registers a boolean flag (bare --name sets it true).
  void add_bool(const std::string& name, bool default_value, std::string help);

  /// Parses argv. Returns false (after printing usage) when --help is
  /// requested. Throws std::invalid_argument on unknown flags or malformed
  /// values: a number flag's value must be exactly one number
  /// (common/number_text.h — "5x", or "3.7" for an int, is malformed), a
  /// double must be finite, and an int below its minimum fails with
  /// "--name must be >= min".
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  /// A string flag's comma-separated items, empty items dropped:
  /// "a,,b," gives {"a", "b"} and "" gives none.
  std::vector<std::string> get_list(const std::string& name) const;

  /// Usage text built from registered flags.
  std::string usage(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Entry {
    Type type;
    std::string value;
    std::string default_value;
    std::string help;
    long long min = std::numeric_limits<long long>::min();  // kInt only
  };
  const Entry& entry(const std::string& name, Type expected) const;

  std::map<std::string, Entry> entries_;
};

}  // namespace sqvae
