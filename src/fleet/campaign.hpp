// campaign.hpp — the fleet as a runnable, mergeable experiment.
//
// FleetCampaign builds the minimal universe for contention studies — one
// StarlinkAccess, an optional scenario timeline, and the fleet — without the
// full measurement testbed (no TCP stacks, no anchors), so a 10k-terminal
// cell stays cheap enough to replicate across seeds. That universe is
// FleetCampaign::Cell; measure::MultiVantageCampaign runs in one too. The Result carries the
// per-cell and per-terminal distributions as stats::KeyedSamples, whose
// key-ordered merge keeps runner::run_merged byte-identical for any --jobs.
#pragma once

#include <cstdint>
#include <memory>

#include "fleet/fleet.hpp"
#include "fleet/run_env.hpp"
#include "scenario/injector.hpp"
#include "sim/network.hpp"
#include "stats/fold.hpp"
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

  /// One fleet-only cell, built from a Config. Members are declared in build
  /// order, so teardown runs in reverse: the fleet and the injector unhook
  /// from the access before it dies, and everything dies before the sim.
  struct Cell {
    explicit Cell(const Config& config);
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    /// Seeded from the env, with its fast-path switch and obs options set
    /// before anything binds to it.
    sim::Simulator sim;
    sim::Network net;
    leo::StarlinkAccess access;
    std::unique_ptr<scenario::Injector> injector;  ///< null without a scenario
    /// A no-op event at the end of the window. The fleet's epoch timer
    /// retires itself when nothing else is queued (so packet campaigns using
    /// Simulator::run() can drain); a fleet-only cell has no packets, so this
    /// keeps the fleet ticking for the whole duration. Scheduled before the
    /// Fleet so its construction-time epoch sees it too.
    sim::EventId sentinel;
    std::unique_ptr<Fleet> fleet;  ///< null unless config.fleet.enabled()
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

    // Shape counts follow the config, not the seed: max keeps a disabled-fleet cell harmless.
    using fields = stats::Fields<&Result::cell_util_down, &Result::cell_util_up,
                                 &Result::terminal_down_mbps, &Result::foreground_down_mbps,
                                 &Result::foreground_up_mbps, stats::keep_max<&Result::terminals>,
                                 stats::keep_max<&Result::cells>,
                                 stats::keep_max<&Result::supercells>,
                                 stats::keep_max<&Result::aggregated_terminals>, &Result::epochs,
                                 &Result::attaches, &Result::detaches, &Result::handovers,
                                 &Result::reallocations, &Result::obs>;
  };

  static Result run(const Config& config);
};

using stats::merge;  // runner::run_merged's fold (stats/fold.hpp)

}  // namespace slp::fleet
