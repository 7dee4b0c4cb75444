#include "fleet/campaign.hpp"

#include <algorithm>
#include <memory>

#include "scenario/injector.hpp"
#include "sim/network.hpp"

namespace slp::fleet {

FleetCampaign::Result FleetCampaign::run(const Config& config) {
  sim::Simulator sim{config.seed};
  sim.set_fast_forward(config.fast_forward);
  if (config.obs.any()) sim.enable_obs(config.obs);
  sim::Network net{sim};
  leo::StarlinkAccess access{net, config.starlink};

  std::unique_ptr<scenario::Injector> injector;
  if (config.scenario != nullptr && !config.scenario->empty()) {
    injector = std::make_unique<scenario::Injector>(
        sim, config.scenario, scenario::Injector::Hooks{&access});
  }

  // Sentinel: the fleet's epoch timer retires itself when nothing else is on
  // the queue (so packet campaigns using Simulator::run() can drain). This
  // campaign has no packet workload, so keep one no-op event pending until
  // the end of the run — it guarantees the fleet ticks for the full duration.
  // Scheduled before the Fleet so its construction-time epoch sees it too.
  sim.schedule_in(config.duration, [] {});

  std::unique_ptr<Fleet> fleet;
  if (config.fleet.enabled()) fleet = std::make_unique<Fleet>(sim, access, config.fleet);

  sim.run_for(config.duration);

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
  if (auto* rec = sim.obs()) {
    if (rec->options().metrics) {
      rec->registry().counter("sim.events_processed").add(sim.events_processed());
    }
    r.obs = rec->take_snapshot();
  } else {
    r.obs.cells = 1;
  }
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
