// fleet_cli — throughput vs. neighbourhood size across access technologies.
//
// Sweeps {fleet sizes} x {demand mixes} for the Starlink access — each cell
// runs the Ookla-style speedtest with N simulated neighbour terminals
// contending for the same ground cells (src/fleet/) — next to the geo and
// wired baselines, which have no shared-cell contention and ignore the
// fleet. Each Starlink cell also runs the pure fleet campaign to report the
// per-cell utilization distribution, and the final cell's per-cell and
// per-terminal ECDFs are rendered in full.
//
//   ./fleet_cli --sizes=1,1000,5000 --mixes=default,web-heavy --seeds=4
//   ./fleet_cli --grid=leo,wired --tests=2 --jobs=8 --metrics=fleet.json
//   ./fleet_cli --grid=leo --sizes=100 --scenario=examples/scenarios/load_surge.scn
//
// Beyond its grid flags (--grid, --sizes, --mixes, --tests, --download,
// --duration) it takes the benches' common flags (bench/bench_common.hpp);
// --scenario replays its timeline onto every speedtest and fleet cell.
//
// Deterministic: seeds derive from (row, replication) alone and results are
// folded in cell order, so any --jobs value prints the same bytes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/campaign.hpp"
#include "measure/campaign.hpp"
#include "runner/sweep.hpp"
#include "stats/ecdf.hpp"
#include "stats/table.hpp"

using namespace slp;

int main(int argc, char** argv) {
  bench::Run run{argc, argv};
  const Flags& flags = run.flags();
  const bench::CommonArgs& args = run.args();
  const int tests = flags.get_int_in("tests", 3, 1, bench::kMaxCount);
  const bool download = flags.get_bool("download", true);
  const auto grid_labels = flags.get_list("grid", {"leo", "geo", "wired"});
  const auto size_list = flags.get_double_list("sizes", {1, 1000, 5000});
  const auto mix_labels = flags.get_list("mixes", {"default"});
  const Duration fleet_duration = flags.get_duration("duration", Duration::minutes(10));
  std::vector<measure::AccessKind> accesses;
  for (const std::string& label : grid_labels) {
    if (const auto kind = measure::parse_access(label)) {
      accesses.push_back(*kind);
    } else {
      flags.reject("grid", "unknown access '" + label + "' (want leo|geo|wired)");
    }
  }
  std::vector<fleet::DemandModel::Config> demands;
  for (const std::string& mix : mix_labels) {
    demands.push_back(bench::named_mix(flags, "mixes", mix));
  }
  if (grid_labels.empty()) flags.reject("grid", "want at least one access");
  if (size_list.empty()) flags.reject("sizes", "want at least one fleet size");
  if (mix_labels.empty()) flags.reject("mixes", "want at least one mix");
  run.start();

  std::printf("fleet sweep: %zu access x %zu sizes x %zu mixes, %d seeds/row, %d tests\n\n",
              accesses.size(), size_list.size(), mix_labels.size(), args.seeds, tests);

  stats::TextTable table{{"access", "fleet", "mix", "speedtest p50", "p95", "cell util p50",
                          "p95", "handovers"}};
  fleet::FleetCampaign::Result last_leo;  // richest cell, rendered as ECDFs below
  bool have_leo = false;
  std::uint64_t row = 0;

  for (const measure::AccessKind kind : accesses) {
    const bool leo = kind == measure::AccessKind::kStarlink;
    // geo/wired have no shared-cell contention: one baseline row each.
    const std::size_t sizes = leo ? size_list.size() : 1;
    const std::size_t mixes = leo ? mix_labels.size() : 1;
    for (std::size_t si = 0; si < sizes; ++si) {
      for (std::size_t mi = 0; mi < mixes; ++mi) {
        ++row;
        measure::SpeedtestCampaign::Config config;
        config.seed = runner::cell_seed(args.seed, row);
        config.access = kind;
        config.tests = tests;
        config.download = download;
        if (leo) {
          config.fleet.size = static_cast<int>(size_list[si]);
          config.fleet.demand = demands[mi];
        }
        const auto speed = run.sweep<measure::SpeedtestCampaign>(config);

        std::string util_p50 = "-";
        std::string util_p95 = "-";
        std::string handovers = "-";
        if (leo && config.fleet.size > 1) {
          fleet::FleetCampaign::Config fc;
          fc.seed = config.seed;
          fc.fleet = config.fleet;
          fc.duration = fleet_duration;
          const auto contention = run.sweep<fleet::FleetCampaign>(fc);
          util_p50 = stats::TextTable::num(contention.cell_util_down.pooled_quantile(0.50), 3);
          util_p95 = stats::TextTable::num(contention.cell_util_down.pooled_quantile(0.95), 3);
          handovers = std::to_string(contention.handovers);
          last_leo = contention;
          have_leo = true;
        }
        using stats::TextTable;
        table.add_row({std::string{measure::to_string(kind)},
                       leo ? std::to_string(config.fleet.size) : "-",
                       leo ? mix_labels[mi] : "-",
                       speed.mbps.empty() ? "-" : TextTable::num(speed.mbps.median(), 1),
                       speed.mbps.empty() ? "-" : TextTable::num(speed.mbps.percentile(95), 1),
                       util_p50, util_p95, handovers});
      }
    }
  }
  std::printf("%s", table.str().c_str());

  if (have_leo) {
    const double probs[] = {0.10, 0.25, 0.50, 0.75, 0.90, 0.99};
    std::printf("\nper-cell mean downlink utilization ECDF (last Starlink row):\n%s",
                stats::render_cdf_rows(stats::Ecdf{last_leo.cell_util_down.means()}, probs, "")
                    .c_str());
    std::printf("\nper-terminal mean downlink allocation ECDF (last Starlink row):\n%s",
                stats::render_cdf_rows(stats::Ecdf{last_leo.terminal_down_mbps.means()}, probs,
                                       " Mbit/s")
                    .c_str());
  }

  return run.finish();
}
