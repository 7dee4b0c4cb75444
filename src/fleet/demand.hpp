// demand.hpp — per-terminal traffic demand as a pure function of time.
//
// 10k terminals sampled every couple of seconds for simulated hours cannot
// afford per-terminal sample vectors — that is O(terminals x steps) memory —
// nor a per-terminal AR(1) stream (LoadProcess), whose far and backward
// queries cost a jump-ahead each. Instead each terminal's demand is a
// *stateless* counter-based function: activity and per-session rate are
// derived by hashing (terminal seed, session index), so any (terminal, t)
// query is O(1), random-access, and bit-identical regardless of query order,
// thread count, or how often the fleet ticks.
//
// The model: every terminal belongs to one demand class (bulk / speedtest /
// web / idle, drawn once from the placement stream). Time is split into
// class-specific session windows; a session is active with the class's duty
// probability (optionally modulated by a diurnal sine — the paper saw a flat
// day/night profile, so the default amplitude is 0), and an active session
// demands the class rate jittered by a per-session factor.
//
// Within-session constancy: with diurnal_amplitude == 0 (the default and
// every named mix) activity and jitter are drawn once per session window, so
// at() is constant over each window. session_at() reports where the window
// ends; the fleet caches a terminal's demand until then and pays one
// evaluation per session, not one per epoch. With diurnal modulation on, the
// duty moves continuously and session_at() reports the query time itself as
// the end, so every later query re-evaluates.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace slp::fleet {

enum class DemandClass : std::uint8_t {
  kBulk = 0,
  kSpeedtest,
  kWeb,
  // Real-time application classes (src/qoe/): zero-fraction by default so
  // the stock mix stays byte-identical; named mixes (named_mix) enable them.
  kVideo,  ///< ABR streaming: high sustained downlink
  kVc,     ///< videoconferencing: symmetric, latency-sensitive
  kGame,   ///< game traffic: tiny rates, long duty
  kIdle,
};

[[nodiscard]] std::string_view to_string(DemandClass c);

/// splitmix64-style stateless mix of two words -> uniform u64 (the same
/// finalizer runner::cell_seed uses for cell decorrelation).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (0x9E3779B97F4A7C15ull * (b + 0x632BE59BD9B4E019ull));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the same mix.
[[nodiscard]] constexpr double mix_uniform(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix64(a, b) >> 11) * 0x1.0p-53;
}

class DemandModel {
 public:
  struct ClassProfile {
    double fraction = 0.25;     ///< share of the fleet in this class
    DataRate down;              ///< active-session downlink demand
    DataRate up;                ///< active-session uplink demand
    Duration session;           ///< session window length
    double duty = 0.5;          ///< probability a window is active
  };

  struct Config {
    ClassProfile bulk{0.10, DataRate::mbps(40), DataRate::mbps(6),
                      Duration::minutes(4), 0.35};
    ClassProfile speedtest{0.05, DataRate::mbps(300), DataRate::mbps(40),
                           Duration::seconds(30), 0.04};
    ClassProfile web{0.45, DataRate::mbps(8), DataRate::mbps(1.5),
                     Duration::seconds(40), 0.50};
    /// QoE session classes, disabled (fraction 0) in the default mix so the
    /// stock exports stay byte-identical — named_mix() turns them on.
    ClassProfile video{0.0, DataRate::mbps(6), DataRate::mbps(0.2),
                       Duration::minutes(6), 0.45};
    ClassProfile vc{0.0, DataRate::mbps(2.5), DataRate::mbps(2.5),
                    Duration::minutes(30), 0.20};
    ClassProfile game{0.0, DataRate::mbps(0.5), DataRate::mbps(0.3),
                      Duration::minutes(20), 0.30};
    ClassProfile idle{0.40, DataRate::mbps(0.8), DataRate::mbps(0.4),
                      Duration::minutes(2), 0.30};
    /// Global demand multipliers — the calibration knobs that put the mean
    /// per-cell utilization on the paper's Figure 5 operating point for the
    /// default placement density.
    double scale_down = 1.0;
    double scale_up = 1.0;
    /// Diurnal duty modulation: duty *= 1 + amplitude * sin(2*pi*t/period).
    /// 0 reproduces the paper's flat day/night observation.
    double diurnal_amplitude = 0.0;
    Duration diurnal_period = Duration::hours(24);
  };

  explicit DemandModel(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Class of a terminal: a deterministic hash draw against the configured
  /// class fractions (no placement state needed).
  [[nodiscard]] DemandClass class_of(std::uint64_t terminal_seed) const;

  struct Demand {
    DataRate down;
    DataRate up;
    [[nodiscard]] bool active() const { return !down.is_zero() || !up.is_zero(); }
  };

  /// Demand of a terminal at time t. Pure: no state is read or written.
  [[nodiscard]] Demand at(std::uint64_t terminal_seed, TimePoint t) const;

  /// A terminal's demand at t and the earliest time it may differ: at(seed,
  /// t') == demand for every t' in [t, until). `until` is the end of t's
  /// session window, or t itself under diurnal modulation. `c` must be
  /// class_of(terminal_seed); callers that query one terminal repeatedly
  /// pass it cached.
  struct Session {
    Demand demand;
    TimePoint until;
  };
  [[nodiscard]] Session session_at(std::uint64_t terminal_seed, DemandClass c,
                                   TimePoint t) const;

  /// Expected long-run downlink/uplink demand of one average terminal (the
  /// class-mix mean) — used to report the implied per-cell utilization.
  /// Computed once from the immutable config.
  [[nodiscard]] Demand expected() const { return expected_; }

  /// Expected demand of one average terminal *at time t*: expected() scaled
  /// by the diurnal duty factor. This is the O(1) analytic term the
  /// hierarchical fleet folds idle cells into (exact while duty * factor
  /// stays <= 1, which holds for every default class profile).
  [[nodiscard]] Demand expected_at(TimePoint t) const;

  /// The duty multiplier at time t (1.0 when diurnal modulation is off).
  [[nodiscard]] double diurnal_factor(TimePoint t) const;

 private:
  [[nodiscard]] const ClassProfile& profile(DemandClass c) const;

  Config config_;
  Demand expected_;
};

/// Named fleet traffic mixes, for the benches' `--fleet-mix` and fleet_cli's
/// `--mixes`: "default" (the stock bulk/speedtest/web/idle mix), "streaming",
/// "realtime", "mixed", "web-heavy", "bulk-heavy" and "idle" (demand.cpp
/// gives their class shares). Throws std::invalid_argument for unknown names.
[[nodiscard]] DemandModel::Config named_mix(std::string_view name);

/// The preset names, for flag validation and help text.
[[nodiscard]] std::vector<std::string_view> mix_names();

}  // namespace slp::fleet
