// sweep_cli — parallel multi-seed campaign sweeps over a scenario grid.
//
// Runs the Ookla-style speedtest campaign for every cell of
//   {access technologies} x {load levels (parallel TCP connections)}
// with N independent seed replications per cell, all scheduled on one
// work-stealing pool, and prints one aggregate throughput table.
//
//   ./sweep_cli --seeds=8 --jobs=8
//   ./sweep_cli --grid=leo,wired --loads=1,8 --tests=6 --seeds=4
//   ./sweep_cli --seeds=4 --jobs=4 --metrics=sweep.json --trace=sweep.trace.json
//   ./sweep_cli --scenario=examples/scenarios/rain_front.scn --seeds=4
//
// The merged table is bit-identical for any --jobs value: cells derive their
// seeds from (cell id, replication id) alone and results are folded in cell
// order, never completion order (see src/runner/sweep.hpp).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "measure/campaign.hpp"
#include "obs/recorder.hpp"
#include "scenario/scenario.hpp"
#include "runner/pool.hpp"
#include "runner/sweep.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace {

using namespace slp;

struct GridCell {
  std::string name;          // grid label: leo | geo | wired
  measure::AccessKind kind;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int seeds = std::max<int>(1, static_cast<int>(flags.get_int("seeds", 4)));
  const int jobs = std::max<int>(0, static_cast<int>(flags.get_int("jobs", 0)));
  const int tests = std::max<int>(1, static_cast<int>(flags.get_int("tests", 4)));
  const bool download = flags.get_bool("download", true);
  const auto grid_labels = flags.get_list("grid", {"leo", "geo", "wired"});
  const auto loads = flags.get_double_list("loads", {1, 4, 8});
  const std::string metrics_path = flags.get("metrics", "");
  const std::string trace_path = flags.get("trace", "");
  const Duration sample_interval = flags.get_duration("sample-interval", Duration::zero());
  const std::string scenario_path = flags.get("scenario", "");
  const Duration scenario_offset = flags.get_duration("scenario-offset", Duration::zero());
  Logger::instance().set_level(
      parse_log_level(flags.get("log-level", "warn"), LogLevel::kWarn));
  obs::Options obs_opts;
  obs_opts.metrics = !metrics_path.empty();
  obs_opts.trace = !trace_path.empty();
  if (sample_interval > Duration::zero()) obs_opts.sample_interval = sample_interval;
  std::shared_ptr<const scenario::Scenario> timeline;
  if (!scenario_path.empty()) {
    try {
      auto scn = scenario::Scenario::load(scenario_path);
      if (scenario_offset != Duration::zero()) scn.shift(scenario_offset);
      timeline = std::make_shared<const scenario::Scenario>(std::move(scn));
      std::printf("scenario: %s (%zu events)\n", timeline->name.c_str(),
                  timeline->events.size());
    } catch (const scenario::ScenarioError& e) {
      std::fprintf(stderr, "error: --scenario=%s: %s\n", scenario_path.c_str(), e.what());
      return 2;
    }
  }
  for (const auto& key : flags.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());
  }

  std::vector<GridCell> grid_cells;
  for (const std::string& label : grid_labels) {
    const auto kind = measure::parse_access(label);
    if (!kind) {
      std::fprintf(stderr, "unknown access '%s' (want leo|geo|wired)\n", label.c_str());
      return 1;
    }
    grid_cells.push_back(GridCell{label, *kind});
  }

  std::printf("sweep: %zu access x %zu load levels, %d seeds/cell, %s direction\n",
              grid_cells.size(), loads.size(), seeds, download ? "download" : "upload");

  // One task per (access, load, seed) cell, all on one pool. Each task
  // fills its own pre-assigned slot; the merge below walks slots in order.
  const std::size_t grid = grid_cells.size() * loads.size();
  std::vector<measure::SpeedtestCampaign::Result> cells(grid * static_cast<std::size_t>(seeds));
  runner::Pool pool{jobs};
  for (std::size_t g = 0; g < grid; ++g) {
    const GridCell& cell = grid_cells[g / loads.size()];
    const int connections = static_cast<int>(loads[g % loads.size()]);
    for (int s = 0; s < seeds; ++s) {
      const std::size_t slot = g * static_cast<std::size_t>(seeds) + static_cast<std::size_t>(s);
      // Two-level derivation: grid index picks a per-cell base stream,
      // replication index forks within it. g+1 so grid cell 0 is mixed too.
      const std::uint64_t seed = runner::cell_seed(runner::cell_seed(base_seed, g + 1),
                                                   static_cast<std::uint64_t>(s));
      pool.submit([&cells, slot, seed, kind = cell.kind, connections, tests, download,
                   obs_opts, timeline] {
        measure::SpeedtestCampaign::Config config;
        config.seed = seed;
        config.access = kind;
        config.connections = connections;
        config.tests = tests;
        config.download = download;
        config.obs = obs_opts;
        config.scenario = timeline;
        cells[slot] = measure::SpeedtestCampaign::run(config);
      });
    }
  }
  pool.drain();

  stats::TextTable table{{"access", "connections", "tests", "p25", "median", "p75", "p95"}};
  obs::Snapshot all_obs;
  for (std::size_t g = 0; g < grid; ++g) {
    measure::SpeedtestCampaign::Result merged =
        std::move(cells[g * static_cast<std::size_t>(seeds)]);
    for (int s = 1; s < seeds; ++s) {
      merge(merged, cells[g * static_cast<std::size_t>(seeds) + static_cast<std::size_t>(s)]);
    }
    obs::merge(all_obs, merged.obs);
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
  std::printf("\npool: %d workers, %llu tasks, %llu stolen, %.2fs cell time "
              "(max cell %.2fs)\n",
              pool.workers(), static_cast<unsigned long long>(pool.tasks_completed()),
              static_cast<unsigned long long>(pool.tasks_stolen()),
              pool.task_seconds_total(), pool.task_seconds_max());

  const auto write_file = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  if (!metrics_path.empty()) {
    write_file(metrics_path, obs::metrics_json(all_obs));
    std::printf("metrics -> %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    const bool jsonl =
        trace_path.size() >= 6 && trace_path.compare(trace_path.size() - 6, 6, ".jsonl") == 0;
    write_file(trace_path,
               jsonl ? obs::trace_jsonl(all_obs.events) : obs::trace_json(all_obs.events));
    std::printf("trace   -> %s\n", trace_path.c_str());
  }
  return 0;
}
