// bench_common.hpp — the one front end of every bench and example main.
//
// Every bench binary prints:
//   * a banner naming the paper asset it regenerates;
//   * the measured rows/series;
//   * the paper's published value next to each measured one, so shape
//     agreement is a one-glance check (EXPERIMENTS.md records the pairs).
//
// Every main goes through one bench::Run, in four steps:
//
//   bench::Run run{argc, argv};              // 1. parse argv and the common flags
//   const auto fleet = bench::parse_fleet(run.flags());  //  ... and its own
//   run.start("Figure 5", "throughput");     // 2. reject bad flags, print banner
//   const auto r = run.sweep<measure::SpeedtestCampaign>(config);  // 3. run, fold
//   return run.finish();                     // 4. write the exports
//
// Step 3 repeats once per campaign; each sweep's obs::Snapshot is folded
// into the run's in call order, and finish() exports the fold. Cells a main
// runs itself (runner::run_indexed pools, single audits) go through fold().
// The examples that take none of the common flags construct their Run with
// Run::own_flags_only and export nothing, but check their flags the same way.
//
// Flag contract: flags are `--key=value` (a bare `--key` means "true"; a
// repeated key keeps its first value). start() is called once every flag has
// been read and before anything is simulated. If any flag was never read
// (`--help` included), did not parse as what it was read as
// (`--scale=abc`, `--seeds=2.5`, `--upload=maybe`, `--duration=5x`), or was
// rejected by the main (an unknown `--grid` access, `--log-level`,
// `--fleet-mix` or `--app` name), or a positional argument was never read
// (only starlink_cli reads one, its command), start() prints one
// "error: ..." line to stderr and exits 2.
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
// The merged exports are byte-identical for any --jobs value. An export that
// cannot be written exits 2 with "error: cannot write PATH".
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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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

/// fleet::named_mix(name) for the value of --key; an unknown name rejects
/// --key (listing the known ones) and yields the stock mix.
inline fleet::DemandModel::Config named_mix(const Flags& flags, std::string_view key,
                                            const std::string& name) {
  try {
    return fleet::named_mix(name);
  } catch (const std::invalid_argument&) {
    std::string known = "unknown mix '" + name + "' (known:";
    for (const auto mix : fleet::mix_names()) known += " " + std::string{mix};
    flags.reject(key, known + ")");
    return {};
  }
}

/// Shared fleet flags, honoured by every figure bench that takes --fleet
/// (every figure bench, and fleet_scale), all through this one parser
/// (EXPERIMENTS.md "Continental campaigns"). With only --fleet=N it yields
/// Fleet::Config{} with size N, so such runs match a hand-set size:
///   --fleet=N             simulated neighbour terminals incl. the foreground
///                         (0 = synthetic cell load only, the default)
///   --continental=0|1     continental-Europe placement preset; also turns
///                         idle-cell aggregation on unless --aggregate says
///                         otherwise
///   --aggregate=0|1       analytic idle-cell aggregation (hot cells only)
///   --shards=K            arbiter epoch shards (1 = serial; output is
///                         byte-identical for every K)
///   --supercell-factor=K  aggregation supercell edge, in base cells
///   --fleet-cell-km=F     base cell size for the fleet grid
///   --fleet-mix=NAME      named traffic mix for the neighbour terminals:
///                         default | streaming | realtime | mixed |
///                         web-heavy | bulk-heavy | idle (fleet::named_mix;
///                         "default" is byte-identical to the pre-mix
///                         behaviour)
inline fleet::Fleet::Config parse_fleet(const Flags& flags, int default_size = 0) {
  fleet::Fleet::Config fc;
  fc.size = static_cast<int>(flags.get_int("fleet", default_size));
  fc.demand = named_mix(flags, "fleet-mix", flags.get("fleet-mix", "default"));
  const bool continental = flags.get_bool("continental", false);
  if (continental) fc.placement = fleet::Placement::continental_europe();
  fc.placement.cell_km = flags.get_double("fleet-cell-km", fc.placement.cell_km);
  fc.aggregate_idle = flags.get_bool("aggregate", continental);
  fc.supercell_factor =
      static_cast<int>(flags.get_int("supercell-factor", fc.supercell_factor));
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

/// Writes `body` to `path`; an export that cannot be written is fatal
/// (exit 2), so a run never reports an export it did not produce.
inline void write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const bool written = f != nullptr &&
                       std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

/// The front end of one bench or example invocation (lifecycle and flag
/// contract: the file header).
class Run {
 public:
  /// Step 1: parses argv and the common flags; --scenario is loaded (and
  /// echoed) here, and a scenario that does not load exits 2.
  Run(int argc, char** argv) : Run{argc, argv, /*common=*/true} {}
  /// For a main that takes none of the common flags (quickstart,
  /// emulate_starlink, cloud_gaming, video_streaming, starlink_cli): it reads
  /// only its own, and finish() exports nothing.
  [[nodiscard]] static Run own_flags_only(int argc, char** argv) {
    return Run{argc, argv, /*common=*/false};
  }

  [[nodiscard]] const Flags& flags() const { return flags_; }
  /// The parsed common flags. Mutable so a main can override one before its
  /// first sweep (fig2 forces provenance on; sweep_cli has its own
  /// --seeds/--jobs defaults).
  [[nodiscard]] CommonArgs& args() { return args_; }

  /// Step 2, once every flag has been read: an unread, unparseable or
  /// rejected flag exits 2 with one "error:" line; then the banner.
  void start(const std::string& asset, const std::string& what) const {
    start();
    banner(asset, what);
  }
  /// Same, without a banner (the examples print their own headings).
  void start() const {
    const std::vector<std::string> problems = flags_.problems();
    if (problems.empty()) return;
    std::string line = "error: " + problems.front();
    for (std::size_t i = 1; i < problems.size(); ++i) line += "; " + problems[i];
    std::fprintf(stderr, "%s\n", line.c_str());
    std::exit(2);
  }

  /// Step 3: runs `config` once per seed cell (runner/sweep.hpp) under the
  /// flags' run environment (CommonArgs::apply) and folds the cells in
  /// cell-id order; the sweep's snapshot is then folded into the run's. With
  /// --seeds=1 the result is exactly the single-seed campaign, whatever
  /// --jobs says. The seed stays the caller's.
  template <typename Campaign>
  typename Campaign::Result sweep(typename Campaign::Config config) {
    args_.apply(config);
    return sweep_as_is<Campaign>(config);
  }
  /// sweep() for a Config whose run environment the caller set and then
  /// overrode (fig8: a scenario per variant, provenance for its game runs).
  template <typename Campaign>
  typename Campaign::Result sweep_as_is(const typename Campaign::Config& config) {
    typename Campaign::Result result = runner::run_merged<Campaign>(args_.sweep(), config);
    fold(result.obs);
    return result;
  }
  /// Folds the snapshot of cells a main ran itself into the run's; fold
  /// them in cell order so the exports stay --jobs invariant.
  void fold(const obs::Snapshot& snap) { obs::merge(snapshot_, snap); }

  /// Step 4: writes the --metrics/--trace/--breakdown/--flight exports of
  /// everything folded, each echoed on stdout, and returns the exit status.
  /// A snapshot taken with obs off still yields a valid (mostly empty)
  /// document, so every bench exports whatever it ran.
  [[nodiscard]] int finish() const {
    if (!args_.metrics.empty()) {
      write_text_file(args_.metrics, obs::metrics_json(snapshot_));
      std::printf("\nmetrics -> %s (%zu counters, %zu series, %llu cells)\n",
                  args_.metrics.c_str(), snapshot_.counters.size(), snapshot_.series.size(),
                  static_cast<unsigned long long>(snapshot_.cells));
    }
    if (!args_.trace.empty()) {
      const bool jsonl = args_.trace.ends_with(".jsonl");
      const auto& events = snapshot_.events;
      write_text_file(args_.trace, jsonl ? obs::trace_jsonl(events) : obs::trace_json(events));
      std::printf("trace   -> %s (%zu events)\n", args_.trace.c_str(), events.size());
    }
    if (!args_.breakdown.empty()) {
      write_text_file(args_.breakdown, obs::breakdown_json(snapshot_));
      std::printf("breakdown -> %s (%zu flow groups, %llu cells)\n", args_.breakdown.c_str(),
                  snapshot_.breakdown_flows.groups().size(),
                  static_cast<unsigned long long>(snapshot_.cells));
    }
    if (!args_.flight.empty()) {
      write_text_file(args_.flight, obs::flight_json(snapshot_));
      std::printf("flights -> %s (%zu dumps)\n", args_.flight.c_str(),
                  snapshot_.flights.size());
    }
    return 0;
  }

 private:
  Run(int argc, char** argv, bool common) : flags_{Flags::parse(argc, argv)} {
    if (common) args_ = parse_common(flags_);
  }

  static CommonArgs parse_common(const Flags& flags) {
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
        // The file name only: stdout must not depend on the checkout's path.
        const std::string file = scenario_path.substr(scenario_path.find_last_of('/') + 1);
        std::printf("scenario: %s (%zu events) from %s\n", args.scenario->name.c_str(),
                    args.scenario->events.size(), file.c_str());
      } catch (const scenario::ScenarioError& e) {
        std::fprintf(stderr, "error: --scenario=%s: %s\n", scenario_path.c_str(), e.what());
        std::exit(2);
      }
    }
    const auto level = parse_log_level(flags.get("log-level", "warn"));
    if (!level) flags.reject("log-level", "want trace|debug|info|warn|error|off");
    Logger::instance().set_level(level.value_or(LogLevel::kWarn));
    return args;
  }

  Flags flags_;
  CommonArgs args_;
  obs::Snapshot snapshot_;
};

}  // namespace slp::bench
