#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace graphsd {

void CliFlags::Define(const std::string& name, const std::string& default_value,
                      const std::string& help) {
  flags_[name] = Flag{default_value, default_value, help};
}

void CliFlags::DefineInt(const std::string& name,
                         const std::string& default_value,
                         const std::string& help, std::int64_t max) {
  Flag flag{default_value, default_value, help, Kind::kInt, max};
  GRAPHSD_CHECK_MSG(Check(name, flag).ok(), "bad default for --" + name);
  flags_[name] = std::move(flag);
}

void CliFlags::DefineDouble(const std::string& name,
                            const std::string& default_value,
                            const std::string& help) {
  Flag flag{default_value, default_value, help, Kind::kDouble, 0};
  GRAPHSD_CHECK_MSG(Check(name, flag).ok(), "bad default for --" + name);
  flags_[name] = std::move(flag);
}

Status CliFlags::Check(const std::string& name, const Flag& flag) {
  const std::string& v = flag.value;
  const char* const end = v.data() + v.size();
  if (flag.kind == Kind::kInt) {
    std::int64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), end, parsed);
    if (v.empty() || ec != std::errc() || ptr != end || parsed < 0 ||
        parsed > flag.max) {
      return InvalidArgumentError("invalid value '" + v + "' for --" + name +
                                  ": expected an integer in [0, " +
                                  std::to_string(flag.max) + "]");
    }
  } else if (flag.kind == Kind::kDouble) {
    double parsed = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), end, parsed);
    if (v.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(parsed) || parsed < 0) {
      return InvalidArgumentError("invalid value '" + v + "' for --" + name +
                                  ": expected a finite number >= 0");
    }
  }
  return Status::Ok();
}

Status CliFlags::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = flags_.find(name);
      if (it == flags_.end()) {
        return InvalidArgumentError("unknown flag --" + name);
      }
      // Boolean-style flag if the next token is absent or another flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
      it->second.value = value;
      GRAPHSD_RETURN_IF_ERROR(Check(name, it->second));
      continue;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + name);
    }
    it->second.value = value;
    GRAPHSD_RETURN_IF_ERROR(Check(name, it->second));
  }
  return Status::Ok();
}

std::string CliFlags::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  GRAPHSD_CHECK_MSG(it != flags_.end(), "undefined flag: " + name);
  return it->second.value;
}

std::int64_t CliFlags::GetInt(const std::string& name) const {
  return std::strtoll(GetString(name).c_str(), nullptr, 10);
}

double CliFlags::GetDouble(const std::string& name) const {
  return std::strtod(GetString(name).c_str(), nullptr);
}

bool CliFlags::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string CliFlags::Help(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (default: " + flag.default_value + ")\n      " +
           flag.help + "\n";
  }
  return out;
}

}  // namespace graphsd
