// sweep_cli — parallel multi-seed campaign sweeps over a scenario grid.
//
// Runs the Ookla-style speedtest campaign for every cell of
//   {access technologies} x {load levels (parallel TCP connections)}
// with N independent seed replications per cell, all served from the one
// shared task queue of a runner::Pool, and prints one aggregate throughput
// table.
//
//   ./sweep_cli --seeds=8 --jobs=8
//   ./sweep_cli --grid=leo,wired --loads=1,8 --tests=6 --seeds=4
//   ./sweep_cli --seeds=4 --jobs=4 --metrics=sweep.json --trace=sweep.trace.json
//   ./sweep_cli --scenario=examples/scenarios/rain_front.scn --seeds=4
//   ./sweep_cli --grid=leo --loads=1 --breakdown=bd.json --fast-forward=0
//
// Flags beyond the grid (--tests, --download, --grid, --loads) are the
// benches' common flags (bench/bench_common.hpp), with --seeds=4 --jobs=0
// as this tool's defaults.
//
// The merged table is bit-identical for any --jobs value: cells derive their
// seeds from (cell id, replication id) alone and results are folded in cell
// order, never completion order (see src/runner/sweep.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "runner/pool.hpp"
#include "runner/sweep.hpp"
#include "stats/table.hpp"

namespace {

using namespace slp;

struct GridCell {
  std::string name;          // grid label: leo | geo | wired
  measure::AccessKind kind;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Run run{argc, argv};
  const Flags& flags = run.flags();
  bench::CommonArgs& args = run.args();
  // This tool's own defaults: 4 replications per grid cell, on every core.
  args.seeds = std::max<int>(1, static_cast<int>(flags.get_int("seeds", 4)));
  args.jobs = std::max<int>(0, static_cast<int>(flags.get_int("jobs", 0)));
  const int tests = std::max<int>(1, static_cast<int>(flags.get_int("tests", 4)));
  const bool download = flags.get_bool("download", true);
  const auto grid_labels = flags.get_list("grid", {"leo", "geo", "wired"});
  const auto loads = flags.get_double_list("loads", {1, 4, 8});
  std::vector<GridCell> grid_cells;
  for (const std::string& label : grid_labels) {
    if (const auto kind = measure::parse_access(label)) {
      grid_cells.push_back(GridCell{label, *kind});
    } else {
      flags.reject("grid", "unknown access '" + label + "' (want leo|geo|wired)");
    }
  }
  if (grid_labels.empty()) flags.reject("grid", "want at least one access");
  if (loads.empty()) flags.reject("loads", "want at least one load level");
  run.start();

  std::printf("sweep: %zu access x %zu load levels, %d seeds/cell, %s direction\n",
              grid_cells.size(), loads.size(), args.seeds, download ? "download" : "upload");

  // One cell per (access, load, seed), all on one pool; cell i is grid
  // point i / seeds, replication i % seeds.
  const std::size_t grid = grid_cells.size() * loads.size();
  const auto seeds = static_cast<std::size_t>(args.seeds);
  runner::Pool pool{args.jobs};
  std::vector<measure::SpeedtestCampaign::Result> cells =
      runner::run_indexed(pool, grid * seeds, [&](std::size_t i) {
        const std::size_t g = i / seeds;
        measure::SpeedtestCampaign::Config config;
        args.apply(config);
        // Two-level derivation: grid index picks a per-cell base stream,
        // replication index forks within it. g+1 so grid cell 0 is mixed too.
        config.seed = runner::cell_seed(runner::cell_seed(args.seed, g + 1), i % seeds);
        config.access = grid_cells[g / loads.size()].kind;
        config.connections = static_cast<int>(loads[g % loads.size()]);
        config.tests = tests;
        config.download = download;
        return measure::SpeedtestCampaign::run(config);
      });

  stats::TextTable table{{"access", "connections", "tests", "p25", "median", "p75", "p95"}};
  for (std::size_t g = 0; g < grid; ++g) {
    measure::SpeedtestCampaign::Result merged = std::move(cells[g * seeds]);
    for (std::size_t s = 1; s < seeds; ++s) merge(merged, cells[g * seeds + s]);
    run.fold(merged.obs);
    using stats::TextTable;
    table.add_row({grid_cells[g / loads.size()].name,
                   TextTable::num(loads[g % loads.size()], 0),
                   std::to_string(merged.mbps.size()),
                   TextTable::num(merged.mbps.percentile(25), 1),
                   TextTable::num(merged.mbps.median(), 1),
                   TextTable::num(merged.mbps.percentile(75), 1),
                   TextTable::num(merged.mbps.percentile(95), 1)});
  }
  std::printf("%s", table.str().c_str());
  return run.finish();
}
