#include "util/log.hpp"

#include <cstdio>
#include <mutex>
#include <string>

namespace slp {

namespace {

std::mutex& write_mutex() {
  static std::mutex mu;
  return mu;
}

struct TimeSource {
  const void* owner = nullptr;
  std::int64_t (*now_ns)(const void*) = nullptr;
};

thread_local TimeSource g_time_source;

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_time_source(const void* owner, std::int64_t (*now_ns)(const void*)) {
  g_time_source = TimeSource{owner, now_ns};
}

void Logger::clear_time_source(const void* owner) {
  if (g_time_source.owner == owner) g_time_source = TimeSource{};
}

void Logger::write(LogLevel level, std::string_view component, std::string_view message) {
  // Format the full record first, then emit it in one guarded write so
  // records from concurrent sweep cells never interleave mid-line.
  std::string line;
  line.reserve(32 + component.size() + message.size());
  line += '[';
  line += to_string(level);
  line += "] ";
  if (g_time_source.now_ns != nullptr) {
    const std::int64_t ns = g_time_source.now_ns(g_time_source.owner);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "[t=%lld.%09llds] ",
                  static_cast<long long>(ns / 1000000000),
                  static_cast<long long>(ns % 1000000000));
    line += buf;
  }
  line += component;
  line += ": ";
  line += message;
  line += '\n';
  std::ostream& os = (level >= LogLevel::kWarn) ? std::cerr : std::clog;
  const std::lock_guard<std::mutex> lock{write_mutex()};
  os << line;
}

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

}  // namespace slp
