// qoe_campaign.hpp — real-time application QoE campaigns (bench/fig8).
//
// Three campaigns put the src/qoe/ session models on the measurement
// testbed, one per application class:
//
//   AbrCampaign   -> ABR video: startup delay, rebuffer ratio, bitrate
//   VcCampaign    -> videoconferencing: per-window E-model MOS
//   GameCampaign  -> game traffic: tick RTT, lag spikes, handover stalls
//
// Each result carries the distributions plus a *slot-phase* view: QoE
// impairments keyed by `floor((t mod 15 s) / 1 s)` — second-of-slot within
// the 15-second Starlink handover grid. The paper family observes rebuffer
// events, MOS dips, and lag spikes clustering at the slot boundary (phases
// 14/0); these exports make that clustering a first-class, mergeable
// statistic. The usual sweep contract holds: runner::run_merged folds cells
// in id order through each Result's `fields` (stats/fold.hpp), so any --jobs
// produces byte-identical results.
#pragma once

#include <cstdint>

#include "fleet/fleet.hpp"
#include "measure/testbed.hpp"
#include "obs/recorder.hpp"
#include "qoe/abr.hpp"
#include "qoe/game.hpp"
#include "qoe/vc.hpp"
#include "stats/fold.hpp"
#include "stats/groupby.hpp"
#include "stats/quantiles.hpp"

namespace slp::measure {

/// Second-of-slot of a sim timestamp within the 15 s handover grid:
/// floor((t mod 15 s) / 1 s), in [0, 14]. Slots are indexed from the sim
/// epoch, matching leo::StarlinkAccess's reconfiguration clock.
[[nodiscard]] std::uint64_t handover_slot_phase(TimePoint t);

// ================================================================ ABR video

struct AbrCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 8; }
    int sessions = 4;                      ///< sequential watch sessions
    Duration gap = Duration::seconds(10);  ///< idle gap between sessions
    qoe::AbrVideoSession::Config session;
    /// Optional simulated-neighbour fleet: puts real cell contention under
    /// the video downloads (use fleet::named_mix("streaming") for fig8).
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples startup_s;        ///< per session
    stats::Samples rebuffer_ratio;   ///< per session
    stats::Samples mean_rung_mbps;   ///< per session, segment-weighted
    stats::Samples segment_mbps;     ///< per segment download throughput
    /// Rebuffer-stall onsets keyed by slot phase (value = 1 per event);
    /// counts cluster at the boundary phases when handovers cause stalls.
    stats::KeyedSamples rebuffer_by_phase;
    std::uint64_t rebuffer_events = 0;
    std::uint64_t quality_switches = 0;
    std::uint64_t segments = 0;
    int sessions_completed = 0;
    obs::Snapshot obs;

    using fields = stats::Fields<&Result::startup_s, &Result::rebuffer_ratio,
                                 &Result::mean_rung_mbps, &Result::segment_mbps,
                                 &Result::rebuffer_by_phase, &Result::rebuffer_events,
                                 &Result::quality_switches, &Result::segments,
                                 &Result::sessions_completed, &Result::obs>;
  };

  static Result run(const Config& config);
};

// ======================================================== videoconferencing

struct VcCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 9; }
    int calls = 3;                         ///< sequential calls
    Duration gap = Duration::seconds(10);
    qoe::VcSession::Config session;
    /// Optional simulated-neighbour fleet (fleet::named_mix("realtime")).
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples mos;             ///< per window, both directions pooled
    stats::Samples window_loss_pct; ///< per window frames late/missing
    stats::Samples transit_ms;      ///< per playable frame, capture -> arrived
    /// Per-window MOS keyed by the slot phase of the window's capture
    /// midpoint: the boundary phases carry the MOS dips.
    stats::KeyedSamples mos_by_phase;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_missed = 0;
    std::uint64_t datagrams_lost = 0;
    int calls_completed = 0;
    obs::Snapshot obs;

    using fields = stats::Fields<&Result::mos, &Result::window_loss_pct, &Result::transit_ms,
                                 &Result::mos_by_phase, &Result::frames_sent,
                                 &Result::frames_missed, &Result::datagrams_lost,
                                 &Result::calls_completed, &Result::obs>;
  };

  static Result run(const Config& config);
};

// ============================================================= game traffic

struct GameCampaign {
  /// Stall buckets for Result::*_high_stall / *_low_stall: the top and
  /// bottom quarters of the combined per-slot beam-penalty range
  /// (2 x uniform(0, 8 ms)); the middle half is left out to sharpen the
  /// contrast.
  static constexpr double kStallHighMs = 12.0;
  static constexpr double kStallLowMs = 4.0;

  struct Config : fleet::RunEnv {  // obs.provenance on for the stall correlation
    Config() { seed = 10; }
    int matches = 3;                       ///< sequential matches
    Duration gap = Duration::seconds(5);
    qoe::GameSession::Config session;
    /// Optional simulated-neighbour fleet (fleet::named_mix("realtime")).
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples rtt_ms;          ///< per answered tick
    /// Lag-spike onsets keyed by slot phase (value = 1 per spike).
    stats::KeyedSamples spikes_by_phase;
    /// Per-spike handover-stall attribution (ms, from the snapshot's
    /// provenance tag); all zero unless Config::obs.provenance is on.
    stats::Samples spike_stall_ms;
    /// Answered ticks and spikes bucketed by the handover_stall carried in
    /// their provenance (>= kStallHighMs vs <= kStallLowMs). The slot's beam
    /// penalty shifts every RTT in the slot toward the spike threshold, so
    /// the spike *rate* in high-stall slots sits far above the low-stall
    /// rate — the quantitative form of the spike/handover_stall correlation.
    std::uint64_t ticks_high_stall = 0;
    std::uint64_t ticks_low_stall = 0;
    std::uint64_t spikes_high_stall = 0;
    std::uint64_t spikes_low_stall = 0;
    /// Handover stall of *every* answered tick (ms) — the baseline the
    /// spike attribution is compared against (spikes should sit well above).
    stats::Samples stall_ms;
    std::uint64_t ticks_sent = 0;
    std::uint64_t ticks_lost = 0;
    std::uint64_t spikes = 0;
    /// Spikes whose provenance carried handover stall (the paper-family
    /// correlation: most spikes should land here, not in random loss).
    std::uint64_t spikes_with_stall = 0;
    int matches_completed = 0;
    obs::Snapshot obs;

    using fields = stats::Fields<&Result::rtt_ms, &Result::spikes_by_phase, &Result::spike_stall_ms,
                                 &Result::ticks_high_stall, &Result::ticks_low_stall,
                                 &Result::spikes_high_stall, &Result::spikes_low_stall,
                                 &Result::stall_ms, &Result::ticks_sent, &Result::ticks_lost,
                                 &Result::spikes, &Result::spikes_with_stall,
                                 &Result::matches_completed, &Result::obs>;
  };

  static Result run(const Config& config);
};

}  // namespace slp::measure
