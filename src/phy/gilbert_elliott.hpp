// gilbert_elliott.hpp — two-state Markov (Gilbert-Elliott) medium loss.
//
// §3.2 of the paper attributes the messages-mode losses to the medium: rare
// events, but bursty when they happen (sometimes >100 consecutive packets).
// A continuous-time Gilbert-Elliott chain reproduces this: the channel
// alternates between a long-lived Good state (near-zero loss) and short Bad
// states (high loss). Because the chain evolves in *time*, a low-rate flow
// sees few loss events while a bulk flow crossing the same Bad window loses
// a burst of consecutive packets — exactly the paper's contrast between H3
// and messaging transfers.
#pragma once

#include <string>

#include "obs/recorder.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::phy {

class GilbertElliott final : public sim::LossModel {
 public:
  struct Config {
    Duration mean_good = Duration::seconds(120);  ///< mean Good sojourn
    Duration mean_bad = Duration::millis(30);     ///< mean Bad sojourn
    double loss_good = 0.0;                       ///< P[drop | Good]
    double loss_bad = 0.8;                        ///< P[drop | Bad]
  };

  GilbertElliott(Config config, Rng rng);

  [[nodiscard]] bool should_drop(TimePoint now, const sim::Packet& pkt) override;

  /// Scales the mean Good sojourn (scenario rain fade: scale < 1 means Bad
  /// states arrive proportionally more often). Deterministic: the remaining
  /// time of an in-progress Good sojourn is rescaled in place — memoryless-
  /// consistent for the exponential — and future Good draws use the scaled
  /// mean. Bad sojourns and loss probabilities are untouched.
  void set_good_scale(TimePoint now, double scale);

  struct Stats {
    std::uint64_t evaluated = 0;
    std::uint64_t dropped = 0;
    std::uint64_t bad_periods = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Wires drop/bad-period counters and a complete trace span per Bad burst
  /// under "phy.ge.<label>". nullptr disables.
  void set_obs(obs::Recorder* rec, std::string label);

 private:
  void advance_to(TimePoint now);

  Config config_;
  Rng rng_;
  bool bad_ = false;
  double good_scale_ = 1.0;
  TimePoint next_transition_;
  Stats stats_;
  std::string obs_label_;
  obs::Counter obs_bad_periods_;
  obs::Counter obs_dropped_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace slp::phy
