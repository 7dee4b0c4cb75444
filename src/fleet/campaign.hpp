// campaign.hpp — the fleet as a runnable, mergeable experiment.
//
// FleetCampaign builds the minimal universe for contention studies — one
// StarlinkAccess, an optional scenario timeline, and the fleet — without the
// full measurement testbed (no TCP stacks, no anchors), so a 10k-terminal
// cell stays cheap enough to replicate across seeds. The Result carries the
// per-cell and per-terminal distributions as stats::KeyedSamples, whose
// key-ordered merge keeps runner::run_merged byte-identical for any --jobs.
#pragma once

#include <cstdint>

#include "fleet/fleet.hpp"
#include "fleet/run_env.hpp"
#include "stats/groupby.hpp"
#include "stats/quantiles.hpp"

namespace slp::fleet {

struct FleetCampaign {
  struct Config : RunEnv {
    Config() { seed = 7; }
    Fleet::Config fleet;  ///< fleet.size <= 0 still runs (pure ambient access)
    leo::StarlinkAccess::Config starlink;
    Duration duration = Duration::hours(1);
  };

  struct Result {
    stats::KeyedSamples cell_util_down;     ///< per cell, one sample per epoch
    stats::KeyedSamples cell_util_up;
    stats::KeyedSamples terminal_down_mbps; ///< per active terminal allocation
    stats::Samples foreground_down_mbps;    ///< what the measured stack sees
    stats::Samples foreground_up_mbps;
    std::uint64_t terminals = 0;  ///< background terminals (max across cells)
    std::uint64_t cells = 0;      ///< hot contention domains (max across cells)
    std::uint64_t supercells = 0;            ///< analytic aggregates (max)
    std::uint64_t aggregated_terminals = 0;  ///< terminals folded analytically (max)
    std::uint64_t epochs = 0;
    std::uint64_t attaches = 0;
    std::uint64_t detaches = 0;
    std::uint64_t handovers = 0;
    std::uint64_t reallocations = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

/// Cell-order fold for runner::run_merged (ADL).
void merge(FleetCampaign::Result& into, const FleetCampaign::Result& from);

}  // namespace slp::fleet
