// Fleet-scale campaign — 10k terminals contending for shared ground cells.
//
// Not a paper figure: this is the scale/determinism workout for src/fleet/.
// It drives FleetCampaign (placement -> demand -> per-cell proportional-fair
// arbitration) for a simulated hour and reports the per-cell utilization and
// per-terminal allocation distributions, plus what the measured foreground
// terminal sees. The merged --metrics export is byte-identical for any
// --jobs value (CI diffs --jobs=1 against --jobs=8).
//
// Extra flags: --duration=DUR (default 1h) and --demand-scale=F, plus the
// fleet knobs from bench_common.hpp: --fleet=N (default 10000 here, incl.
// the foreground; scaled by --scale), --fleet-cell-km=F, --continental=0|1
// (European placement preset + aggregation), --aggregate=0|1 (analytic idle
// cells), --shards=K (parallel arbiter epochs, byte-identical for any K) and
// --supercell-factor=K (aggregation grid).
#include <cstdio>

#include "bench_common.hpp"
#include "fleet/campaign.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  const Flags& flags = run.flags();
  const Duration duration = flags.get_duration("duration", Duration::hours(1));
  const double demand_scale = flags.get_double("demand-scale", 1.0);

  fleet::FleetCampaign::Config config;
  config.seed = args.seed;
  config.duration = duration;
  config.fleet = bench::parse_fleet(flags, 10000);
  config.fleet.size = std::max(1, static_cast<int>(config.fleet.size * args.scale));
  config.fleet.demand.scale_down = demand_scale;
  config.fleet.demand.scale_up = demand_scale;
  run.start("Fleet scale", "multi-terminal contention: placement, demand, per-cell PF");

  std::printf("fleet: %d terminals, %.0f s simulated, %d seed cell(s), %d job(s), "
              "%d shard(s)%s\n\n",
              config.fleet.size, duration.to_seconds(), args.seeds, args.jobs,
              config.fleet.shards,
              config.fleet.aggregate_idle ? ", idle cells aggregated" : "");

  const auto result = run.sweep<fleet::FleetCampaign>(config);

  std::printf("placement: %llu background terminals, %llu hot cells",
              static_cast<unsigned long long>(result.terminals),
              static_cast<unsigned long long>(result.cells));
  if (result.supercells > 0) {
    std::printf(", %llu supercells (%llu terminals aggregated)",
                static_cast<unsigned long long>(result.supercells),
                static_cast<unsigned long long>(result.aggregated_terminals));
  }
  std::printf("\n");
  std::printf("epochs: %llu   attaches: %llu   detaches: %llu   handovers: %llu   "
              "reallocations: %llu\n\n",
              static_cast<unsigned long long>(result.epochs),
              static_cast<unsigned long long>(result.attaches),
              static_cast<unsigned long long>(result.detaches),
              static_cast<unsigned long long>(result.handovers),
              static_cast<unsigned long long>(result.reallocations));

  stats::TextTable util{{"distribution", "n", "mean", "p50", "p95", "max"}};
  const auto util_row = [&](const std::string& name, const stats::KeyedSamples& ks) {
    const stats::StreamingSummary pooled = ks.pooled();
    if (pooled.empty()) {
      util.add_row({name, "0", "-", "-", "-", "-"});
      return;
    }
    using stats::TextTable;
    util.add_row({name, std::to_string(pooled.count()), TextTable::num(pooled.mean(), 3),
                  TextTable::num(ks.pooled_quantile(0.50), 3),
                  TextTable::num(ks.pooled_quantile(0.95), 3),
                  TextTable::num(pooled.max(), 3)});
  };
  util_row("cell util down", result.cell_util_down);
  util_row("cell util up", result.cell_util_up);
  util_row("terminal alloc down (Mbit/s)", result.terminal_down_mbps);
  std::printf("%s\n", util.str().c_str());

  stats::TextTable fg{{"foreground capacity", "min", "p5", "p25", "p50", "p75", "p95",
                       "paper median"}};
  fg.add_row(bench::boxplot_row("downlink (Mbit/s)", result.foreground_down_mbps, "178"));
  fg.add_row(bench::boxplot_row("uplink (Mbit/s)", result.foreground_up_mbps, "17"));
  std::printf("%s", fg.str().c_str());
  std::printf("\n(the paper's Figure 5 medians are end-to-end goodput; the capacity the\n"
              " arbiter leaves the foreground should sit near/above them)\n");

  return run.finish();
}
