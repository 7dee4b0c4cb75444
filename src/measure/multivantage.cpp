#include "measure/multivantage.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "leo/constellation.hpp"
#include "leo/handover.hpp"
#include "leo/places.hpp"

namespace slp::measure {

std::vector<MultiVantageCampaign::Anchor> MultiVantageCampaign::paper_anchors() {
  using leo::places::kAmsterdam;
  return {
      {"brussels-be", leo::places::kBrussels, true, true},
      {"antwerp-be", leo::places::kAntwerp, true, true},
      {"ghent-be", leo::places::kGhent, true, true},
      {"liege-be", leo::places::kLiege, true, true},
      {"amsterdam-1", kAmsterdam, true, false},
      {"amsterdam-2", kAmsterdam, true, false},
      {"nuremberg-1", leo::places::kNuremberg, true, false},
      {"nuremberg-2", leo::places::kNuremberg, true, false},
      {"new-york", leo::places::kNewYork, false, false},
      {"fremont", leo::places::kFremont, false, false},
      {"singapore", leo::places::kSingapore, false, false},
  };
}

MultiVantageCampaign::Result MultiVantageCampaign::run(const Config& config) {
  fleet::FleetCampaign::Config cell_config{config};
  cell_config.fleet.size = std::max(1, cell_config.fleet.size);
  fleet::FleetCampaign::Cell cell{cell_config};
  sim::Simulator& sim = cell.sim;
  fleet::Fleet& fleet = *cell.fleet;

  const std::vector<Anchor> anchors =
      config.anchors.empty() ? paper_anchors() : config.anchors;

  // Every vantage watches the sky from its own coordinates, against the
  // global gateway set, with a label-forked stream of its own — one shared
  // Constellation supplies the geometry.
  leo::Constellation constellation{config.starlink.shell};
  struct Station {
    fleet::TerminalId vantage = 0;
    std::unique_ptr<leo::HandoverScheduler> scheduler;
    Rng rng;
  };
  std::vector<Station> stations;
  stations.reserve(anchors.size());
  Result result;
  result.vantages.reserve(anchors.size());
  for (const Anchor& a : anchors) {
    leo::HandoverScheduler::Config ho;
    ho.terminal = a.location;
    ho.slot = config.starlink.handover_slot;
    ho.terminal_min_elevation_deg = config.starlink.terminal_min_elevation_deg;
    ho.gateways = leo::default_global_gateways();
    ho.active_planes_fn = config.starlink.active_planes_fn;
    Station s;
    s.vantage = fleet.add_vantage(a.location);
    s.scheduler = std::make_unique<leo::HandoverScheduler>(
        constellation, std::move(ho), sim.fork_rng("mv/" + a.name));
    s.rng = sim.fork_rng("mv/" + a.name + "/probe");
    stations.push_back(std::move(s));
    result.vantages.push_back({a.name, a.european, a.local, {}, {}, 0, 0});
  }

  const leo::StarlinkAccess::Config& ac = config.starlink;
  const double nominal_down_mbps = ac.cell_downlink.bits_per_second() / 1e6;

  const auto probe_round = [&] {
    const TimePoint now = sim.now();
    for (std::size_t i = 0; i < stations.size(); ++i) {
      Station& s = stations[i];
      VantageResult& v = result.vantages[i];
      const leo::HandoverScheduler::Path& path = s.scheduler->path_at(now);
      v.probes_sent += static_cast<std::uint64_t>(config.probes_per_round);
      if (!path.connected) {
        v.probes_lost += static_cast<std::uint64_t>(config.probes_per_round);
        continue;
      }
      fleet::CellArbiter* arb = fleet.arbiter(fleet.vantage_cell(s.vantage));
      const double util_down =
          arb == nullptr ? 0.0 : arb->utilization(fleet::CellArbiter::kDown, now);
      const double util_up =
          arb == nullptr ? 0.0 : arb->utilization(fleet::CellArbiter::kUp, now);
      const Duration prop = path.propagation_one_way();
      for (int k = 0; k < config.probes_per_round; ++k) {
        // The access model's one-way composition, both directions: bent-pipe
        // propagation + fixed processing + a uniform wait for the next frame
        // grant, plus an exponential scheduling tail. Contention adds queueing
        // proportional to the cell's utilization (an M/D/1-flavoured term:
        // deeper frames queue when the arbiter runs the cell hotter).
        const Duration up_wait =
            Duration::from_seconds(s.rng.uniform(0.0, ac.uplink_frame.to_seconds()) +
                                   util_up * ac.uplink_frame.to_seconds() * 0.5);
        const Duration down_wait =
            Duration::from_seconds(s.rng.uniform(0.0, ac.downlink_frame.to_seconds()) +
                                   util_down * ac.downlink_frame.to_seconds() * 0.5);
        const Duration tail =
            Duration::from_seconds(s.rng.exponential(ac.tail_jitter_mean.to_seconds()));
        const Duration rtt = prop + prop + ac.processing_up + ac.processing_down +
                             up_wait + down_wait + tail;
        v.rtt_ms.add(rtt.to_millis());
      }
      v.down_mbps.add(nominal_down_mbps *
                      fleet.vantage_available_fraction(
                          s.vantage, fleet::CellArbiter::kDown, now));
    }
  };

  // Rounds at t = 0, cadence, 2*cadence, ... while inside the window.
  std::function<void()> schedule_round = [&] {
    probe_round();
    if (sim.now() + config.cadence <= TimePoint::epoch() + config.duration) {
      sim.schedule_in(config.cadence, [&schedule_round] { schedule_round(); });
    }
  };
  sim.schedule_in(Duration::zero(), [&schedule_round] { schedule_round(); });

  sim.run_for(config.duration);

  result.hot_cells = fleet.cell_count();
  result.supercells = fleet.aggregates().size();
  result.aggregated_terminals = fleet.aggregated_terminal_count();
  result.obs = sim.take_obs();
  return result;
}

void merge(MultiVantageCampaign::Result& into, const MultiVantageCampaign::Result& from) {
  if (into.vantages.empty()) {
    into.vantages = from.vantages;
  } else {
    for (std::size_t i = 0; i < into.vantages.size() && i < from.vantages.size(); ++i) {
      into.vantages[i].rtt_ms.merge(from.vantages[i].rtt_ms);
      into.vantages[i].down_mbps.merge(from.vantages[i].down_mbps);
      into.vantages[i].probes_sent += from.vantages[i].probes_sent;
      into.vantages[i].probes_lost += from.vantages[i].probes_lost;
    }
  }
  into.hot_cells = std::max(into.hot_cells, from.hot_cells);
  into.supercells = std::max(into.supercells, from.supercells);
  into.aggregated_terminals = std::max(into.aggregated_terminals, from.aggregated_terminals);
  obs::merge(into.obs, from.obs);
}

}  // namespace slp::measure
