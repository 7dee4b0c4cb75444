// run_env.hpp — the run environment every campaign cell shares.
//
// Four settings do not depend on what a campaign measures: the seed, the
// observability options, the scenario timeline and the fast-path switch.
// RunEnv holds exactly those. Every campaign Config (measure::*Campaign,
// measure::MiddleboxAudit, fleet::FleetCampaign) and measure::TestbedConfig
// derive from it, so a campaign's run() hands its env to the Testbed in one
// statement and bench::CommonArgs::apply sets it from the flags in one call.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/recorder.hpp"
#include "scenario/scenario.hpp"

namespace slp::fleet {

struct RunEnv {
  /// Cell seed; runner::run_cells replaces it per cell. Campaign Configs
  /// whose paper default differs set theirs in their constructor.
  std::uint64_t seed = 1;
  /// Observability: enabled on the Simulator *before* the topology is built
  /// so every component binds its handles/probes at construction.
  obs::Options obs;
  /// Environment/fault timeline replayed onto the Starlink access (null =
  /// clear sky). Shared across sweep cells: scenarios are seed-independent,
  /// so every cell schedules the identical timeline.
  std::shared_ptr<const scenario::Scenario> scenario;
  /// Analytic fast paths (link express serialization, transport scan
  /// skipping). Exports are identical either way; `false` runs the
  /// packet-level reference the differential suite compares against.
  bool fast_forward = true;
};

}  // namespace slp::fleet
