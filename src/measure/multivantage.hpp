// multivantage.hpp — the paper's 11 anchors as measured terminals in one fleet.
//
// The IMC'22 study measured ONE Starlink dish and pinged 11 anchors; the
// follow-up studies it motivated ("A Multifaceted Look at Starlink
// Performance", "Democratizing LEO Satellite Network Measurement") place a
// *dish* in every metro instead. MultiVantageCampaign is that inversion run
// inside a single simulation: each anchor city hosts a measured vantage
// terminal (fleet::Fleet::add_vantage) sharing one continental fleet, with
// its own handover scheduler watching the sky from its own coordinates and
// a global gateway set, so per-city RTT and capacity distributions come out
// of ONE deterministic run instead of 11 separate single-vantage campaigns.
//
// Vantage probes are model-level (no per-vantage packet stacks): RTT is the
// bent-pipe geometry (2x propagation) + the access model's processing and
// frame-scheduling terms + a contention-dependent queueing term from the
// vantage cell's arbiter; capacity is the nominal cell rate times the
// vantage's elastic share (Fleet::vantage_available_fraction). That keeps 11
// vantages over a million-terminal fleet as cheap as one.
//
// The universe is a fleet::FleetCampaign::Cell, so the run environment
// (seed, obs, scenario, fast_forward) reaches it exactly as it reaches a
// FleetCampaign cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/campaign.hpp"
#include "leo/access.hpp"
#include "obs/recorder.hpp"
#include "stats/quantiles.hpp"

namespace slp::measure {

struct MultiVantageCampaign {
  struct Anchor {
    std::string name;
    leo::GeoPoint location;
    bool european = false;
    bool local = false;  ///< in Belgium, like the 4 local RIPE nodes
  };

  /// The paper's 11 anchors (testbed.cpp order).
  [[nodiscard]] static std::vector<Anchor> paper_anchors();

  /// The shared env, fleet, access and duration are FleetCampaign's. A
  /// fleet.size < 1 is promoted to 1 (vantages only, ambient cell load);
  /// continental presets + aggregate_idle scale to millions.
  struct Config : fleet::FleetCampaign::Config {
    Config() { seed = 8; }
    Duration cadence = Duration::minutes(5);
    int probes_per_round = 3;
    /// Empty = paper_anchors().
    std::vector<Anchor> anchors;
  };

  struct VantageResult {
    std::string name;
    bool european = false;
    bool local = false;
    stats::Samples rtt_ms;     ///< per answered probe
    stats::Samples down_mbps;  ///< elastic-share capacity, one per round
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_lost = 0;  ///< rounds with no serving satellite
  };

  struct Result {
    std::vector<VantageResult> vantages;  ///< anchor order, stable across seeds
    std::uint64_t hot_cells = 0;
    std::uint64_t supercells = 0;
    std::uint64_t aggregated_terminals = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

/// Per-vantage fold for runner::run_merged (requires the same anchor set).
void merge(MultiVantageCampaign::Result& into, const MultiVantageCampaign::Result& from);

}  // namespace slp::measure
