// load_process.hpp — time-varying shared-cell utilization.
//
// Starlink capacity is shared per cell. The paper found *no* diurnal pattern
// ("median throughput varies by less than ±10% with no apparent day-night
// cycle") and attributed this to low infrastructure utilization. We model
// utilization as a mean-reverting AR(1) process sampled on a fixed step,
// optionally with a (disabled-by-default) diurnal component — the ablation
// benches flip it on to show what a loaded network would have looked like.
//
// The process keeps O(1) state — the stream before step 0, the stream after
// the last computed step, that step's index and its value — so a query days
// into a campaign costs no memory and O(log n) time, not a replay of every
// step. A far forward query jumps the stream (Rng::discard; normal() always
// takes exactly two draws) to w steps short of the target and runs two AR(1)
// trajectories from the bounds every deviation lies within, ±2·volatility·
// √(−2 ln 2⁻⁵³)/reversion, through the same w draws. The step
// x ← x·(1−reversion) + n is monotone in x (in floating point too), so the
// true trajectory is sandwiched between the two and, once they are bitwise
// equal, equals them; w starts where the bounds' gap falls below 2^-64 and
// doubles until they are. If they do not meet, or reversion is outside
// (0, 1], the process steps sequentially. A backward query restarts from
// the step-0 stream. Every value is therefore a pure
// function of the step index, bit-identical to stepping from t=0.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::phy {

class LoadProcess {
 public:
  struct Config {
    double mean_utilization = 0.25;   ///< long-run average share of cell in use
    double volatility = 0.06;         ///< AR(1) innovation std-dev
    double reversion = 0.2;           ///< pull toward the mean per step
    Duration step = Duration::seconds(10);
    double diurnal_amplitude = 0.0;   ///< 0 = flat (paper's observation)
    Duration diurnal_period = Duration::hours(24);
    double floor = 0.02;
    double ceiling = 0.95;
  };

  /// Throws std::invalid_argument, naming the field, when `step` is not
  /// positive, `volatility` is negative or `floor > ceiling`.
  LoadProcess(Config config, Rng rng);

  /// Utilization in [floor, ceiling] at time t. Deterministic per seed: the
  /// value at a step index does not depend on which times were queried.
  [[nodiscard]] double utilization(TimePoint t);

  /// Fraction of nominal capacity available to our user at time t.
  [[nodiscard]] double available_fraction(TimePoint t) { return 1.0 - utilization(t); }

  /// Pins utilization to `target` (clamped to [floor, ceiling]) until
  /// clear_override() — the scenario injector's cell-load-surge hook. The
  /// underlying AR(1) noise stays a function of the step index, so clearing
  /// the override resumes the unperturbed trajectory.
  void set_utilization_override(double target) {
    override_ = std::clamp(target, config_.floor, config_.ceiling);
    overridden_ = true;
  }
  void clear_override() { overridden_ = false; }
  [[nodiscard]] bool overridden() const { return overridden_; }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// AR(1) deviation from the mean at step `idx`.
  double deviation(std::int64_t idx);

  Config config_;
  Rng origin_;              ///< stream before step 0
  Rng rng_;                 ///< stream after step last_
  std::int64_t last_ = -1;  ///< last computed step; -1 = none yet
  double value_ = 0.0;      ///< deviation at step last_ (0 before step 0)
  double seek_bound_ = 0.0; ///< every deviation lies in ±seek_bound_
  std::int64_t seek_window_ = 0;  ///< first window tried; a seek needs a gap ≥ 4x it
  bool seekable_ = false;
  bool overridden_ = false;
  double override_ = 0.0;
};

}  // namespace slp::phy
