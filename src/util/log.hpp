// log.hpp — minimal leveled logger for the simulator and benches.
//
// Logging in the hot path of a discrete-event simulator must cost nothing
// when disabled: the SLP_LOG macro checks the level before evaluating the
// stream expression.
//
// Thread-safety: sweep cells run campaigns on runner::Pool workers, so
// write() formats the whole record into one string and emits it under a
// mutex — lines from concurrent cells never interleave. The level is
// atomic; set it once from main() before spawning workers.
//
// Sim-time prefix: a simulation may register a clock source for the calling
// thread (each worker owns at most one live Simulator at a time), and every
// record logged from that thread is prefixed with the current sim time.
#pragma once

#include <atomic>
#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

namespace slp {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= this->level(); }

  void write(LogLevel level, std::string_view component, std::string_view message);

  /// Registers a sim-clock for records logged from the *calling thread*.
  /// `owner` is an opaque identity (the Simulator) so a destructor only
  /// clears its own registration; `now_ns` returns the current sim time.
  static void set_time_source(const void* owner, std::int64_t (*now_ns)(const void*));
  static void clear_time_source(const void* owner);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
};

[[nodiscard]] std::string_view to_string(LogLevel level);

/// "trace"/"debug"/"info"/"warn"/"error"/"off" (case-sensitive) -> level;
/// anything else -> nullopt.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name);

}  // namespace slp

// Usage: SLP_LOG(kDebug, "quic", "sent pn=" << pn << " bytes=" << n);
#define SLP_LOG(level, component, expr)                                          \
  do {                                                                           \
    if (::slp::Logger::instance().enabled(::slp::LogLevel::level)) {             \
      std::ostringstream slp_log_os_;                                            \
      slp_log_os_ << expr;                                                       \
      ::slp::Logger::instance().write(::slp::LogLevel::level, (component),       \
                                      slp_log_os_.str());                        \
    }                                                                            \
  } while (false)
