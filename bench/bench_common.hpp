// bench_common.hpp — shared scaffolding for the table/figure regenerators.
//
// Every bench binary prints:
//   * a banner naming the paper asset it regenerates;
//   * the measured rows/series;
//   * the paper's published value next to each measured one, so shape
//     agreement is a one-glance check (EXPERIMENTS.md records the pairs).
//
// Common flags: --seed=N, --scale=F (scales campaign sizes; 1.0 = the
// defaults documented in DESIGN.md, larger = closer to paper scale),
// --seeds=N (independent seed replications per campaign, merged cell-id
// ordered) and --jobs=M (worker threads; results are identical for any M).
// --fast-forward=0 disables the analytic fast paths (link express
// serialization, transport scan skipping) and runs the packet-level
// reference; exports are identical either way.
//
// Observability flags (EXPERIMENTS.md "Metrics & tracing"):
//   --metrics=PATH          write the merged metrics JSON document
//   --trace=PATH            write a Chrome trace-event file (.jsonl => JSONL)
//   --sample-interval=DUR   sample gauges (queue depth, cwnd, ...) on a grid
//   --log-level=LEVEL       trace|debug|info|warn|error|off (default warn)
// The merged exports are byte-identical for any --jobs value.
//
// Latency-provenance flags (EXPERIMENTS.md "Latency provenance"):
//   --provenance=0|1        per-packet RTT component tagging (default 0)
//   --breakdown=PATH        write the merged per-flow/component breakdown JSON
//                           (implies --provenance=1)
//   --flight=PATH           write anomaly flight-recorder dumps (implies
//                           --provenance=1; empty document when nothing fired)
//   --profile=0|1           wall-clock subsystem profiling, reported to stderr
//                           as "wall-profile ..." lines (default 0)
//
// Scenario flags (EXPERIMENTS.md "Scenario runs"):
//   --scenario=PATH         replay an environment/fault timeline (scenario.hpp
//                           format; examples/scenarios/*.scn) onto every cell
//   --scenario-offset=DUR   shift the whole timeline later by DUR
// Durations accept unit suffixes: 90s, 15m, 2h (bare numbers = seconds).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "fleet/fleet.hpp"
#include "fleet/run_env.hpp"
#include "obs/recorder.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "stats/quantiles.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace slp::bench {

inline void banner(const std::string& asset, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", asset.c_str(), what.c_str());
  std::printf("  (reproduction of \"A First Look at Starlink Performance\", IMC'22)\n");
  std::printf("==============================================================\n");
}

/// "measured 46.2 (paper 46-52)" helper for prose lines.
inline std::string vs(double measured, const std::string& paper, int precision = 1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.*f (paper: %s)", precision, measured, paper.c_str());
  return buf;
}

/// Renders one distribution as the boxplot row used across figures.
inline std::vector<std::string> boxplot_row(const std::string& name,
                                            const stats::Samples& samples,
                                            const std::string& paper_median) {
  if (samples.empty()) {
    return {name, "-", "-", "-", "-", "-", "-", paper_median};
  }
  const stats::BoxplotSummary box = boxplot(samples);
  using stats::TextTable;
  return {name,
          TextTable::num(box.min, 1),
          TextTable::num(box.p5, 1),
          TextTable::num(box.p25, 1),
          TextTable::num(box.median, 1),
          TextTable::num(box.p75, 1),
          TextTable::num(box.p95, 1),
          paper_median};
}

/// Typo guard: call after every flag has been read (Flags tracks used keys
/// lazily, so benches with extra flags read them first, then warn once).
inline void warn_unused(const Flags& flags) {
  for (const auto& key : flags.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());
  }
}

/// Shared fleet flags (EXPERIMENTS.md "Continental campaigns"):
///   --fleet=N             simulated neighbour terminals incl. the foreground
///                         (0 = synthetic cell load only, the default)
///   --continental=0|1     continental-Europe placement preset; also turns
///                         idle-cell aggregation on unless --aggregate says
///                         otherwise
///   --aggregate=0|1       analytic idle-cell aggregation (hot cells only)
///   --shards=K            arbiter epoch shards (1 = serial; output is
///                         byte-identical for every K)
///   --supercell-km=F      aggregation supercell edge, converted to a factor
///                         of the cell size (--supercell-factor=K sets it
///                         directly)
///   --fleet-cell-km=F     base cell size for the fleet grid
///   --fleet-mix=NAME      named traffic mix for the neighbour terminals:
///                         default | streaming | realtime | mixed
///                         (fleet::named_mix; "default" is byte-identical to
///                         the pre-mix behaviour)
inline fleet::Fleet::Config parse_fleet(const Flags& flags) {
  fleet::Fleet::Config fc;
  fc.size = static_cast<int>(flags.get_int("fleet", 0));
  const std::string mix = flags.get("fleet-mix", "default");
  try {
    fc.demand = fleet::named_mix(mix);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "error: --fleet-mix=%s (known:", mix.c_str());
    for (const auto name : fleet::mix_names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
    }
    std::fprintf(stderr, ")\n");
    std::exit(2);
  }
  const bool continental = flags.get_bool("continental", false);
  if (continental) fc.placement = fleet::Placement::continental_europe();
  fc.placement.cell_km = flags.get_double("fleet-cell-km", fc.placement.cell_km);
  fc.aggregate_idle = flags.get_bool("aggregate", continental);
  fc.supercell_factor =
      static_cast<int>(flags.get_int("supercell-factor", fc.supercell_factor));
  const double supercell_km = flags.get_double("supercell-km", 0.0);
  if (supercell_km > 0.0) {
    fc.supercell_factor = std::max(
        1, static_cast<int>(supercell_km / std::max(1.0, fc.placement.cell_km) + 0.5));
  }
  fc.shards = std::max(0, static_cast<int>(flags.get_int("shards", 1)));
  return fc;
}

struct CommonArgs {
  std::uint64_t seed = 1;
  double scale = 1.0;
  int seeds = 1;  ///< seed replications per campaign (cells of the sweep)
  int jobs = 1;   ///< worker threads; 0 = hardware concurrency
  std::string metrics;          ///< --metrics=PATH; empty = metrics off
  std::string trace;            ///< --trace=PATH; empty = tracing off
  std::string breakdown;        ///< --breakdown=PATH; empty = no export
  std::string flight;           ///< --flight=PATH; empty = no export
  bool provenance = false;      ///< --provenance=1 or implied by the above
  bool profile = false;         ///< --profile=1 wall-clock subsystem sections
  Duration sample_interval = Duration::zero();  ///< zero = sampling off
  /// --scenario=PATH, already loaded/validated/offset; null = clear sky.
  std::shared_ptr<const scenario::Scenario> scenario;
  /// --fast-forward=0 runs the packet-level reference paths (same exports,
  /// several times slower; see EXPERIMENTS.md "Performance baseline").
  bool fast_forward = true;

  static CommonArgs parse(int argc, char** argv) {
    const Flags flags = Flags::parse(argc, argv);
    CommonArgs args = parse(flags);
    warn_unused(flags);
    return args;
  }

  /// Same, from an existing Flags set — for benches with extra flags, which
  /// read theirs afterwards and then call warn_unused themselves.
  static CommonArgs parse(const Flags& flags) {
    CommonArgs args;
    args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    args.scale = flags.get_double("scale", 1.0);
    args.seeds = std::max(1, static_cast<int>(flags.get_int("seeds", 1)));
    args.jobs = std::max(0, static_cast<int>(flags.get_int("jobs", 1)));
    args.metrics = flags.get("metrics", "");
    args.trace = flags.get("trace", "");
    args.breakdown = flags.get("breakdown", "");
    args.flight = flags.get("flight", "");
    args.provenance = flags.get_bool("provenance", false) || !args.breakdown.empty() ||
                      !args.flight.empty();
    args.profile = flags.get_bool("profile", false);
    args.sample_interval =
        std::max(Duration::zero(), flags.get_duration("sample-interval", Duration::zero()));
    args.fast_forward = flags.get_bool("fast-forward", true);
    const std::string scenario_path = flags.get("scenario", "");
    const Duration scenario_offset = flags.get_duration("scenario-offset", Duration::zero());
    if (!scenario_path.empty()) {
      try {
        auto scn = scenario::Scenario::load(scenario_path);
        if (scenario_offset != Duration::zero()) scn.shift(scenario_offset);
        args.scenario = std::make_shared<const scenario::Scenario>(std::move(scn));
        std::printf("scenario: %s (%zu events) from %s\n", args.scenario->name.c_str(),
                    args.scenario->events.size(), scenario_path.c_str());
      } catch (const scenario::ScenarioError& e) {
        std::fprintf(stderr, "error: --scenario=%s: %s\n", scenario_path.c_str(), e.what());
        std::exit(2);
      }
    }
    Logger::instance().set_level(
        parse_log_level(flags.get("log-level", "warn"), LogLevel::kWarn));
    return args;
  }

  [[nodiscard]] int scaled(int base) const {
    return std::max(1, static_cast<int>(base * scale));
  }

  [[nodiscard]] runner::SweepConfig sweep() const { return {seeds, jobs}; }

  /// Per-cell observability options implied by the flags.
  [[nodiscard]] obs::Options obs() const {
    obs::Options opts;
    opts.metrics = !metrics.empty();
    opts.trace = !trace.empty();
    opts.provenance = provenance;
    opts.profile = profile;
    if (sample_interval > Duration::zero()) opts.sample_interval = sample_interval;
    return opts;
  }

  /// Sets a campaign Config's (or a TestbedConfig's) run environment from
  /// the obs flags, --scenario and --fast-forward. The seed stays the
  /// caller's: benches offset it per campaign.
  void apply(fleet::RunEnv& env) const {
    env.obs = obs();
    env.scenario = scenario;
    env.fast_forward = fast_forward;
  }
};

inline void write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

/// Writes the --metrics/--trace outputs a bench collected. A snapshot taken
/// with obs off still yields a valid (mostly empty) document, so benches can
/// call this unconditionally.
inline void write_obs(const CommonArgs& args, const obs::Snapshot& snap) {
  if (!args.metrics.empty()) {
    write_text_file(args.metrics, obs::metrics_json(snap));
    std::printf("\nmetrics -> %s (%zu counters, %zu series, %llu cells)\n",
                args.metrics.c_str(), snap.counters.size(), snap.series.size(),
                static_cast<unsigned long long>(snap.cells));
  }
  if (!args.trace.empty()) {
    const bool jsonl = args.trace.size() >= 6 &&
                       args.trace.compare(args.trace.size() - 6, 6, ".jsonl") == 0;
    write_text_file(args.trace,
                    jsonl ? obs::trace_jsonl(snap.events) : obs::trace_json(snap.events));
    std::printf("trace   -> %s (%zu events)\n", args.trace.c_str(), snap.events.size());
  }
  if (!args.breakdown.empty()) {
    write_text_file(args.breakdown, obs::breakdown_json(snap));
    std::printf("breakdown -> %s (%zu flow groups, %llu cells)\n", args.breakdown.c_str(),
                snap.breakdown_flows.groups().size(),
                static_cast<unsigned long long>(snap.cells));
  }
  if (!args.flight.empty()) {
    write_text_file(args.flight, obs::flight_json(snap));
    std::printf("flights -> %s (%zu dumps)\n", args.flight.c_str(), snap.flights.size());
  }
}

/// Runs `config` once per seed cell (runner/sweep.hpp) and folds the results
/// in cell-id order — the drop-in replacement for `Campaign::run(config)`
/// in every regenerator. With --seeds=1 (the default) the output is exactly
/// the single-seed campaign, whatever --jobs says. The bench's env flags
/// (CommonArgs::apply) reach every cell; the merged Result carries the
/// folded snapshot.
template <typename Campaign>
[[nodiscard]] typename Campaign::Result run_sweep(const CommonArgs& args,
                                                  typename Campaign::Config config) {
  args.apply(config);
  return runner::run_merged<Campaign>(args.sweep(), config);
}

}  // namespace slp::bench
