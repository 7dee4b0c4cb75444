// flags.hpp — tiny --key=value command-line parser for benches & examples.
//
// Not a general argument library: benches accept a handful of overrides
// (seed, scale, output verbosity). Nothing is forgiven: a value that does
// not parse as the type it is read as, or that a caller rejects, a flag
// nobody read and a positional argument nobody read are all listed by
// problems(), so a typo never silently falls back to a default. The getters
// return `def` for such a value; callers check problems() before using any
// of them (bench::Run does, for every bench and example).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace slp {

class Flags {
 public:
  /// Parses argv of the form `--key=value` or bare `--flag` (value "true");
  /// a repeated key keeps its first value. Non-flag positional arguments are
  /// collected separately; one that is never read is a problem.
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view key) const;

  [[nodiscard]] std::string get(std::string_view key, std::string_view def) const;
  /// A base-10 integer ("12", "-3"); anything else is a problem.
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t def) const;
  /// A finite number ("0.25", "1e3"; parse_number, units.hpp).
  [[nodiscard]] double get_double(std::string_view key, double def) const;
  /// 1|true|yes or 0|false|no; a bare `--flag` is true.
  [[nodiscard]] bool get_bool(std::string_view key, bool def) const;

  /// Human duration value (`--ramp=90s`, `--window=15m`, `--span=2h`); a bare
  /// number means seconds (parse_duration, units.hpp).
  [[nodiscard]] Duration get_duration(std::string_view key, Duration def) const;

  /// Comma-separated list value (`--grid=leo,geo,wired`); `def` when absent.
  /// Empty elements are dropped, so `--grid=` means "empty list".
  [[nodiscard]] std::vector<std::string> get_list(std::string_view key,
                                                  std::vector<std::string> def) const;
  /// Comma-separated numeric list (`--loads=0.2,0.5,0.9`).
  [[nodiscard]] std::vector<double> get_double_list(std::string_view key,
                                                    std::vector<double> def) const;

  /// Positional argument `index` (0-based), marking it and every earlier one
  /// read; null when there are not that many.
  [[nodiscard]] const std::string* positional(std::size_t index) const;

  /// Records that --key's value is not acceptable, e.g. an unknown name for
  /// an enumerated flag; `why` follows "--key=value: " in problems().
  void reject(std::string_view key, std::string_view why) const;

  /// Keys that were supplied but never queried.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Everything wrong with the command line so far, one message per flag:
  /// values that did not parse or were rejected, then "unknown flag --KEY"
  /// for every key never read, then "unexpected argument 'ARG'" for every
  /// positional never read. Call after every flag has been read.
  [[nodiscard]] std::vector<std::string> problems() const;

 private:
  /// The value of --key, marking the key read; null when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const;
  /// Records "--key=value <what>" once per key (the first problem wins).
  void bad_value(std::string_view key, std::string_view what) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::set<std::string, std::less<>> used_;
  mutable std::map<std::string, std::string, std::less<>> errors_;
  std::vector<std::string> positional_;
  mutable std::size_t positionals_read_ = 0;
};

}  // namespace slp
