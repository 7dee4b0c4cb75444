#include "util/units.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>

namespace slp {

bool parse_duration(std::string_view text, Duration& out) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) text.remove_suffix(1);
  if (text.empty()) return false;
  const std::string buf{text};  // strtod needs NUL termination
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) return false;  // no number at all
  const std::string_view unit{end};
  double to_seconds = 1.0;
  if (unit.empty() || unit == "s") to_seconds = 1.0;
  else if (unit == "ns") to_seconds = 1e-9;
  else if (unit == "us") to_seconds = 1e-6;
  else if (unit == "ms") to_seconds = 1e-3;
  else if (unit == "m" || unit == "min") to_seconds = 60.0;
  else if (unit == "h") to_seconds = 3600.0;
  else if (unit == "d") to_seconds = 86400.0;
  else return false;
  out = Duration::from_seconds(value * to_seconds);
  return true;
}

bool parse_number(std::string_view text, double& out) {
  const std::string buf{text};  // strtod needs NUL termination
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (buf.empty() || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_integer(std::string_view text, std::int64_t& out) {
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) return false;
  out = value;
  return true;
}

std::string to_string(Duration d) {
  std::ostringstream os;
  os << d;
  return os.str();
}

std::string to_string(TimePoint t) {
  std::ostringstream os;
  os << t;
  return os.str();
}

std::string to_string(DataRate r) {
  std::ostringstream os;
  os << r;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, Duration d) {
  if (d.is_infinite()) return os << "+inf";
  const double s = d.to_seconds();
  const double as = std::abs(s);
  std::ostringstream tmp;
  tmp << std::setprecision(4);
  if (as >= 1.0) {
    tmp << s << "s";
  } else if (as >= 1e-3) {
    tmp << s * 1e3 << "ms";
  } else if (as >= 1e-6) {
    tmp << s * 1e6 << "us";
  } else {
    tmp << d.ns() << "ns";
  }
  return os << tmp.str();
}

std::ostream& operator<<(std::ostream& os, TimePoint t) {
  if (t.is_infinite()) return os << "+inf";
  std::ostringstream tmp;
  tmp << "t=" << std::fixed << std::setprecision(6) << t.to_seconds() << "s";
  return os << tmp.str();
}

std::ostream& operator<<(std::ostream& os, DataRate r) {
  const double bps = r.bits_per_second();
  std::ostringstream tmp;
  tmp << std::setprecision(4);
  if (bps >= 1e9) {
    tmp << bps * 1e-9 << "Gbit/s";
  } else if (bps >= 1e6) {
    tmp << bps * 1e-6 << "Mbit/s";
  } else if (bps >= 1e3) {
    tmp << bps * 1e-3 << "kbit/s";
  } else {
    tmp << bps << "bit/s";
  }
  return os << tmp.str();
}

}  // namespace slp
