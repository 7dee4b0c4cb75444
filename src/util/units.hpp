// units.hpp — strong types for time, data rate and data size.
//
// The whole simulator runs on an integer nanosecond clock. Using a strong
// Duration/TimePoint pair (instead of raw int64_t or double seconds) makes it
// impossible to accidentally add two absolute times or mix seconds with
// nanoseconds, which is the classic class of bugs in discrete-event code.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace slp {

/// A signed time interval with nanosecond resolution.
///
/// Range: +/- ~292 years, far beyond the 5-month campaigns simulated here.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t ns) { return Duration{ns}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t us) { return Duration{us * 1'000}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t m) { return seconds(m * 60); }
  [[nodiscard]] static constexpr Duration hours(std::int64_t h) { return seconds(h * 3600); }
  [[nodiscard]] static constexpr Duration days(std::int64_t d) { return hours(d * 24); }

  /// Converts a floating-point second count, rounding to the nearest ns
  /// (halves away from zero, exactly as std::llround). Every serialization
  /// time and jitter draw comes through here, so the rounding is done
  /// inline: the truncation of a double below 2^63 is exact, and so is the
  /// fraction it leaves. NaN and values beyond ±9e18 ns take llround itself.
  [[nodiscard]] static Duration from_seconds(double s) {
    const double x = s * 1e9;
    if (!(x > -9e18 && x < 9e18)) return Duration{static_cast<std::int64_t>(std::llround(x))};
    auto i = static_cast<std::int64_t>(x);
    const double f = x - static_cast<double>(i);
    if (f >= 0.5) ++i;
    if (f <= -0.5) --i;
    return Duration{i};
  }
  [[nodiscard]] static Duration from_millis(double ms) { return from_seconds(ms * 1e-3); }
  [[nodiscard]] static Duration from_micros(double us) { return from_seconds(us * 1e-6); }

  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration infinite() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns_) * 1e-3; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }
  [[nodiscard]] constexpr bool is_infinite() const {
    return ns_ == std::numeric_limits<std::int64_t>::max();
  }

  constexpr Duration& operator+=(Duration d) { ns_ += d.ns_; return *this; }
  constexpr Duration& operator-=(Duration d) { ns_ -= d.ns_; return *this; }
  constexpr Duration& operator*=(double f) {
    ns_ = static_cast<std::int64_t>(static_cast<double>(ns_) * f);
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.ns_}; }
  friend constexpr Duration operator*(Duration a, double f) { Duration r = a; r *= f; return r; }
  friend constexpr Duration operator*(double f, Duration a) { return a * f; }
  friend constexpr Duration operator/(Duration a, std::int64_t n) { return Duration{a.ns_ / n}; }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

  friend std::ostream& operator<<(std::ostream& os, Duration d);

 private:
  explicit constexpr Duration(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

/// An absolute instant on the simulation clock (ns since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint epoch() { return TimePoint{}; }
  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t ns) { return TimePoint{ns}; }
  [[nodiscard]] static constexpr TimePoint infinite() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr Duration since_epoch() const { return Duration::nanos(ns_); }
  [[nodiscard]] constexpr bool is_infinite() const {
    return ns_ == std::numeric_limits<std::int64_t>::max();
  }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.ns_ + d.ns()}; }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.ns_ - d.ns()}; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return Duration::nanos(a.ns_ - b.ns_); }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  friend std::ostream& operator<<(std::ostream& os, TimePoint t);

 private:
  explicit constexpr TimePoint(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

/// A data rate in bits per second.
///
/// Stored as double: rates are the result of divisions and shaping math, and
/// ns-exact arithmetic buys nothing here.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bps(double v) { return DataRate{v}; }
  [[nodiscard]] static constexpr DataRate kbps(double v) { return DataRate{v * 1e3}; }
  [[nodiscard]] static constexpr DataRate mbps(double v) { return DataRate{v * 1e6}; }
  [[nodiscard]] static constexpr DataRate gbps(double v) { return DataRate{v * 1e9}; }
  [[nodiscard]] static constexpr DataRate zero() { return DataRate{0.0}; }

  [[nodiscard]] constexpr double bits_per_second() const { return bps_; }
  [[nodiscard]] constexpr double to_mbps() const { return bps_ * 1e-6; }
  [[nodiscard]] constexpr bool is_zero() const { return bps_ == 0.0; }

  /// Time to serialize `bytes` onto a link of this rate.
  [[nodiscard]] Duration transmission_time(std::uint64_t bytes) const {
    return Duration::from_seconds(static_cast<double>(bytes) * 8.0 / bps_);
  }

  /// Bytes delivered in `d` at this rate.
  [[nodiscard]] double bytes_in(Duration d) const { return bps_ * d.to_seconds() / 8.0; }

  friend constexpr DataRate operator*(DataRate r, double f) { return DataRate{r.bps_ * f}; }
  friend constexpr DataRate operator*(double f, DataRate r) { return r * f; }
  friend constexpr DataRate operator/(DataRate r, double f) { return DataRate{r.bps_ / f}; }
  friend constexpr DataRate operator+(DataRate a, DataRate b) { return DataRate{a.bps_ + b.bps_}; }
  friend constexpr DataRate operator-(DataRate a, DataRate b) { return DataRate{a.bps_ - b.bps_}; }
  friend constexpr auto operator<=>(DataRate, DataRate) = default;

  friend std::ostream& operator<<(std::ostream& os, DataRate r);

 private:
  explicit constexpr DataRate(double bps) : bps_{bps} {}
  double bps_ = 0.0;
};

/// Rate observed when `bytes` were moved in `elapsed`.
[[nodiscard]] inline DataRate rate_of(std::uint64_t bytes, Duration elapsed) {
  if (elapsed <= Duration::zero()) return DataRate::zero();
  return DataRate::bps(static_cast<double>(bytes) * 8.0 / elapsed.to_seconds());
}

[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(TimePoint t);
[[nodiscard]] std::string to_string(DataRate r);

/// Parses a human duration: a number with an optional unit suffix out of
/// {ns, us, ms, s, m/min, h, d}. A bare number means seconds; fractions are
/// fine ("1.5s", "0.25h"); surrounding whitespace is ignored. Returns false
/// (leaving `out` untouched) on empty input, unknown suffix or trailing junk.
/// Shared by Flags::get_duration and the scenario file parser.
[[nodiscard]] bool parse_duration(std::string_view text, Duration& out);

/// Parses the whole of `text` as one finite number (strtod syntax: "4",
/// "0.25", "1e3"). Returns false, leaving `out` untouched, on empty input,
/// trailing junk, nan or inf. Shared by Flags and the scenario file parser.
[[nodiscard]] bool parse_number(std::string_view text, double& out);
/// Same for a base-10 integer that fits an int64 ("12", "-3"; not "1.5").
[[nodiscard]] bool parse_integer(std::string_view text, std::int64_t& out);

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) { return Duration::nanos(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::micros(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::millis(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_s(unsigned long long v) { return Duration::seconds(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_min(unsigned long long v) { return Duration::minutes(static_cast<std::int64_t>(v)); }
constexpr DataRate operator""_mbps(unsigned long long v) { return DataRate::mbps(static_cast<double>(v)); }
constexpr DataRate operator""_mbps(long double v) { return DataRate::mbps(static_cast<double>(v)); }
constexpr DataRate operator""_kbps(unsigned long long v) { return DataRate::kbps(static_cast<double>(v)); }
constexpr DataRate operator""_gbps(unsigned long long v) { return DataRate::gbps(static_cast<double>(v)); }
}  // namespace literals

}  // namespace slp
