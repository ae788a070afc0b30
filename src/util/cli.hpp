// Tiny command-line flag parser used by the examples and benches.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms.
// Unknown flags are an error so typos surface immediately.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace graphsd {

class CliFlags {
 public:
  /// Declares a flag with a default value and help text.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Declares an integer flag: Parse rejects a value that is not a whole
  /// base-10 integer in [0, max].
  void DefineInt(const std::string& name, const std::string& default_value,
                 const std::string& help,
                 std::int64_t max = std::numeric_limits<std::int64_t>::max());

  /// Declares a real-valued flag: Parse rejects a value that is not a
  /// whole finite number >= 0.
  void DefineDouble(const std::string& name, const std::string& default_value,
                    const std::string& help);

  /// Parses argv. Returns kInvalidArgument naming the flag on an unknown
  /// flag or a malformed or out-of-range numeric value.
  Status Parse(int argc, const char* const* argv);

  /// Accessors; the flag must have been defined.
  std::string GetString(const std::string& name) const;
  std::int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Renders a usage/help string listing every defined flag.
  std::string Help(const std::string& program) const;

 private:
  enum class Kind { kString, kInt, kDouble };
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    Kind kind = Kind::kString;
    std::int64_t max = 0;  // kInt only
  };

  /// kInvalidArgument naming `name` unless `flag.value` suits its kind.
  static Status Check(const std::string& name, const Flag& flag);
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace graphsd
