#include "phy/load_process.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace slp::phy {

LoadProcess::LoadProcess(Config config, Rng rng) : config_{config}, origin_{rng}, rng_{rng} {
  if (config_.step.ns() <= 0) {
    throw std::invalid_argument("LoadProcess::Config::step must be positive");
  }
  if (!(config_.volatility >= 0.0)) {
    throw std::invalid_argument("LoadProcess::Config::volatility must be >= 0");
  }
  if (!(config_.floor <= config_.ceiling)) {
    throw std::invalid_argument("LoadProcess::Config::floor must be <= ceiling");
  }
  // Rng::normal's magnitude peaks at sqrt(-2 ln u1) with u1 >= 2^-53, so
  // |deviation| <= volatility * that / reversion in exact arithmetic; the
  // factor 2 absorbs each step's rounding.
  const double max_normal = std::sqrt(-2.0 * std::log(0x1.0p-53));
  seek_bound_ = 2.0 * config_.volatility * max_normal / config_.reversion;
  // The bounds' gap, 2·seek_bound_, shrinks by 1−reversion per step; the
  // first window takes it below 2^-64, under one ulp of any deviation of
  // magnitude ≥ 2^-12. For the shipped configs ~99.7% of seeks meet in it.
  const double keep = 1.0 - config_.reversion;
  const double window = (std::log2(2.0 * seek_bound_) + 64.0) / -std::log2(keep);
  seekable_ = keep >= 0.0 && keep < 1.0 && std::isfinite(seek_bound_) && window < 0x1.0p40;
  if (seekable_) seek_window_ = static_cast<std::int64_t>(std::max(1.0, std::ceil(window)));
}

double LoadProcess::deviation(std::int64_t idx) {
  const double keep = 1.0 - config_.reversion;
  if (idx < last_) {
    rng_ = origin_;
    last_ = -1;
    value_ = 0.0;
  }
  const std::int64_t gap = idx - last_;
  for (std::int64_t w = seek_window_; seekable_ && 4 * w <= gap; w *= 2) {
    Rng probe = rng_;
    probe.discard(2 * static_cast<std::uint64_t>(gap - w));
    double lo = -seek_bound_;
    double hi = seek_bound_;
    for (std::int64_t i = 0; i < w; ++i) {
      const double n = probe.normal(0.0, config_.volatility);
      lo = lo * keep + n;
      hi = hi * keep + n;
    }
    // Steps never yield -0.0 (normal() returns 0.0 + x), so == is bitwise.
    if (lo == hi) {
      rng_ = probe;
      last_ = idx;
      value_ = hi;
      return value_;
    }
  }
  for (; last_ < idx; ++last_) value_ = value_ * keep + rng_.normal(0.0, config_.volatility);
  return value_;
}

double LoadProcess::utilization(TimePoint t) {
  // Override short-circuits *reads*, never draws: the noise sequence is a
  // pure function of the step index, so resuming after clear_override() is
  // bit-identical to never having been overridden.
  if (overridden_) return override_;
  double u = config_.mean_utilization +
             deviation(std::max<std::int64_t>(0, t.ns() / config_.step.ns()));
  if (config_.diurnal_amplitude > 0.0) {
    const double phase =
        2.0 * std::numbers::pi * t.to_seconds() / config_.diurnal_period.to_seconds();
    u += config_.diurnal_amplitude * std::sin(phase);
  }
  return std::clamp(u, config_.floor, config_.ceiling);
}

}  // namespace slp::phy
