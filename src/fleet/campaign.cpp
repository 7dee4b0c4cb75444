#include "fleet/campaign.hpp"

#include <algorithm>

namespace slp::fleet {

namespace {

sim::Simulator& with_env(sim::Simulator& sim, const RunEnv& env) {
  sim.set_fast_forward(env.fast_forward);
  if (env.obs.any()) sim.enable_obs(env.obs);
  return sim;
}

}  // namespace

FleetCampaign::Cell::Cell(const Config& config)
    : sim{config.seed},
      net{with_env(sim, config)},
      access{net, config.starlink},
      injector{config.scenario != nullptr && !config.scenario->empty()
                   ? std::make_unique<scenario::Injector>(sim, config.scenario,
                                                          scenario::Injector::Hooks{&access})
                   : nullptr},
      sentinel{sim.schedule_in(config.duration, [] {})},
      fleet{config.fleet.enabled() ? std::make_unique<Fleet>(sim, access, config.fleet)
                                   : nullptr} {}

FleetCampaign::Result FleetCampaign::run(const Config& config) {
  Cell cell{config};
  cell.sim.run_for(config.duration);
  Fleet* fleet = cell.fleet.get();

  Result r;
  if (fleet != nullptr) {
    r.cell_util_down = fleet->cell_util(CellArbiter::kDown);
    r.cell_util_up = fleet->cell_util(CellArbiter::kUp);
    r.terminal_down_mbps = fleet->terminal_down_mbps();
    r.foreground_down_mbps = fleet->foreground_down_mbps();
    r.foreground_up_mbps = fleet->foreground_up_mbps();
    r.terminals = fleet->terminal_count();
    r.cells = fleet->cell_count();
    r.supercells = fleet->aggregates().size();
    r.aggregated_terminals = fleet->aggregated_terminal_count();
    r.epochs = fleet->epochs();
    const CellArbiter::Stats t = fleet->totals();
    r.attaches = t.attaches;
    r.detaches = t.detaches;
    r.handovers = t.handovers;
    r.reallocations = t.reallocations;
  }
  r.obs = cell.sim.take_obs();
  return r;
}

void merge(FleetCampaign::Result& into, const FleetCampaign::Result& from) {
  into.cell_util_down.merge(from.cell_util_down);
  into.cell_util_up.merge(from.cell_util_up);
  into.terminal_down_mbps.merge(from.terminal_down_mbps);
  into.foreground_down_mbps.merge(from.foreground_down_mbps);
  into.foreground_up_mbps.merge(from.foreground_up_mbps);
  // Fleet shape is config-driven and identical across cells; keep the max so
  // a merge with a disabled-fleet cell stays sensible.
  into.terminals = std::max(into.terminals, from.terminals);
  into.cells = std::max(into.cells, from.cells);
  into.supercells = std::max(into.supercells, from.supercells);
  into.aggregated_terminals = std::max(into.aggregated_terminals, from.aggregated_terminals);
  into.epochs += from.epochs;
  into.attaches += from.attaches;
  into.detaches += from.detaches;
  into.handovers += from.handovers;
  into.reallocations += from.reallocations;
  obs::merge(into.obs, from.obs);
}

}  // namespace slp::fleet
