// Minimal --key=value flag parsing for the command-line tools.
//
// Every argument must be a flag, and each flag may appear once. Getters are
// strict. GetUint wants decimal digits only, no larger than its `max`;
// GetDouble a finite decimal >= 0; neither takes a sign, suffix or space.
// GetBool wants true/false, 1/0 or yes/no. A malformed value makes the
// getter return its default and is reported by Error(), which also reports
// a positional argument, a repeated flag, and any flag that no getter or
// Has() asked about. So read every flag, then check Error() before acting on
// any of them.
#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace fdpcache {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Note("unexpected argument '" + std::string(arg) + "' (flags take --name=value)");
        continue;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(0, eq));
      const std::string value =
          eq == std::string_view::npos ? "true" : std::string(arg.substr(eq + 1));
      if (!values_.emplace(name, value).second) {
        Note("--" + name + " given more than once");
      }
    }
  }

  // Parses all of `text` as a decimal integer in [0, max]; `*out` is left
  // untouched on failure, as in ParseDouble.
  static bool ParseUint(std::string_view text, uint64_t max, uint64_t* out) {
    uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() || end != text.data() + text.size() || value > max) {
      return false;
    }
    *out = value;
    return true;
  }

  // Parses all of `text` as a finite number >= 0.
  static bool ParseDouble(std::string_view text, double* out) {
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || text[0] == '-' || ec != std::errc() ||
        end != text.data() + text.size() || !std::isfinite(value)) {
      return false;
    }
    *out = value;
    return true;
  }

  std::string GetString(const std::string& name, const std::string& def) const {
    const std::string* value = Find(name);
    return value == nullptr ? def : *value;
  }
  double GetDouble(const std::string& name, double def) const {
    const std::string* value = Find(name);
    double out = def;
    if (value != nullptr && !ParseDouble(*value, &out)) {
      Fail(name, *value, "not a non-negative number");
    }
    return out;
  }
  uint64_t GetUint(const std::string& name, uint64_t def, uint64_t max = UINT64_MAX) const {
    const std::string* value = Find(name);
    uint64_t out = def;
    if (value != nullptr && !ParseUint(*value, max, &out)) {
      Fail(name, *value, "not a whole number in [0, " + std::to_string(max) + "]");
    }
    return out;
  }
  bool GetBool(const std::string& name, bool def) const {
    const std::string* value = Find(name);
    if (value == nullptr) {
      return def;
    }
    if (*value == "true" || *value == "1" || *value == "yes") {
      return true;
    }
    if (*value != "false" && *value != "0" && *value != "no") {
      Fail(name, *value, "not true or false");
      return def;
    }
    return false;
  }
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // Records a malformed value that the caller parsed itself.
  void Fail(const std::string& name, const std::string& value, const std::string& why) const {
    Note("--" + name + "=" + value + ": " + why);
  }

  // The first positional argument, repeated flag or malformed value, else
  // the first flag never asked about; empty when every flag was read and
  // parsed.
  std::string Error() const {
    if (!error_.empty()) {
      return error_;
    }
    for (const auto& [name, value] : values_) {
      if (read_.count(name) == 0) {
        return "unknown flag --" + name;
      }
    }
    return "";
  }

 private:
  void Note(const std::string& error) const {
    if (error_.empty()) {
      error_ = error;
    }
  }

  const std::string* Find(const std::string& name) const {
    read_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> values_;
  // Bookkeeping of the const getters.
  mutable std::set<std::string> read_;
  mutable std::string error_;
};

}  // namespace fdpcache

#endif  // TOOLS_FLAGS_H_
