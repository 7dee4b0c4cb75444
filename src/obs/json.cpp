#include "obs/json.hpp"

#include <clocale>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace slp::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) { return '"' + json_escape(s) + '"'; }

namespace {

// snprintf honours the global LC_NUMERIC, so a host locale like de_DE would
// turn 3.14 into "3,14" and silently break every byte-compared export. All
// double rendering funnels through here: format, then swap whatever decimal
// separator the active locale produced back to '.'.
std::string format_double(const char* fmt, double v) {
  if (!std::isfinite(v)) return "0";
  if (v == 0.0) return "0";  // normalizes -0 too
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  const std::string_view text{buf};
  if (const char* dp = std::localeconv()->decimal_point; dp != nullptr && dp[0] != '\0' &&
                                                         !(dp[0] == '.' && dp[1] == '\0')) {
    const std::string_view sep{dp};
    if (const auto pos = text.find(sep); pos != std::string_view::npos) {
      std::string out{text.substr(0, pos)};
      out += '.';
      out += text.substr(pos + sep.size());
      return out;
    }
  }
  return std::string{text};
}

}  // namespace

std::string json_number(double v) { return format_double("%.12g", v); }

std::string json_number_exact(double v) { return format_double("%.17g", v); }

}  // namespace slp::obs
