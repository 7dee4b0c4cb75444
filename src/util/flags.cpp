#include "util/flags.hpp"

#include <algorithm>

namespace slp {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!arg.starts_with("--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      flags.values_.emplace(std::string{body}, "true");
    } else {
      flags.values_.emplace(std::string{body.substr(0, eq)}, std::string{body.substr(eq + 1)});
    }
  }
  return flags;
}

const std::string* Flags::find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(it->first);
  return &it->second;
}

void Flags::bad_value(std::string_view key, std::string_view what) const {
  const auto it = values_.find(key);
  const std::string value = it == values_.end() ? "" : it->second;
  errors_.try_emplace(std::string{key},
                      "--" + std::string{key} + "=" + value + std::string{what});
}

void Flags::reject(std::string_view key, std::string_view why) const {
  bad_value(key, ": " + std::string{why});
}

const std::string* Flags::positional(std::size_t index) const {
  if (index >= positional_.size()) return nullptr;
  positionals_read_ = std::max(positionals_read_, index + 1);
  return &positional_[index];
}

bool Flags::has(std::string_view key) const { return find(key) != nullptr; }

std::string Flags::get(std::string_view key, std::string_view def) const {
  const std::string* value = find(key);
  return value == nullptr ? std::string{def} : *value;
}

std::int64_t Flags::get_int(std::string_view key, std::int64_t def) const {
  const std::string* value = find(key);
  if (value == nullptr) return def;
  std::int64_t parsed = def;
  if (!parse_integer(*value, parsed)) bad_value(key, " is not an integer");
  return parsed;
}

double Flags::get_double(std::string_view key, double def) const {
  const std::string* value = find(key);
  if (value == nullptr) return def;
  double parsed = def;
  if (!parse_number(*value, parsed)) bad_value(key, " is not a number");
  return parsed;
}

bool Flags::get_bool(std::string_view key, bool def) const {
  const std::string* value = find(key);
  if (value == nullptr) return def;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  bad_value(key, " is not a boolean (want 1|0|true|false|yes|no)");
  return def;
}

Duration Flags::get_duration(std::string_view key, Duration def) const {
  const std::string* value = find(key);
  if (value == nullptr) return def;
  Duration parsed = def;
  if (!parse_duration(*value, parsed)) {
    bad_value(key, " is not a duration (want e.g. 90s, 15m, 2h)");
  }
  return parsed;
}

std::vector<std::string> Flags::get_list(std::string_view key,
                                         std::vector<std::string> def) const {
  const std::string* value = find(key);
  if (value == nullptr) return def;
  std::vector<std::string> out;
  std::string_view rest{*value};
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    if (!item.empty()) out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return out;
}

std::vector<double> Flags::get_double_list(std::string_view key,
                                           std::vector<double> def) const {
  if (find(key) == nullptr) return def;
  std::vector<double> out;
  for (const std::string& item : get_list(key, {})) {
    double parsed = 0.0;
    if (!parse_number(item, parsed)) reject(key, item + " is not a number");
    out.push_back(parsed);
  }
  return out;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!used_.contains(key)) result.push_back(key);
  }
  return result;
}

std::vector<std::string> Flags::problems() const {
  std::vector<std::string> result;
  for (const auto& [key, message] : errors_) {
    (void)key;
    result.push_back(message);
  }
  for (const std::string& key : unused()) result.push_back("unknown flag --" + key);
  for (std::size_t i = positionals_read_; i < positional_.size(); ++i) {
    result.push_back("unexpected argument '" + positional_[i] + "'");
  }
  return result;
}

}  // namespace slp
