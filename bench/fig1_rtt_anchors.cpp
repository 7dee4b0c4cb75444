// Figure 1 — Distribution of the RTT to the 11 anchors (boxplots).
//
// Paper values to match in shape: Belgian anchors median in [46, 52] ms with
// minima in [24, 28] ms; the German probes lowest at ~42 ms median (minimum
// 20.5 ms overall); San Francisco ~184 ms and Singapore ~270 ms via the same
// European exits (no ISLs).
//
// Extra flags: --fleet=N (simulated neighbours contending under the pings;
// see bench_common.hpp for the continental/aggregation/sharding knobs) and
// --multivantage=1, which inverts the experiment: instead of one dish
// pinging 11 anchors, every anchor city hosts a measured dish in one shared
// fleet (measure::MultiVantageCampaign) and the table reports each city's
// own access RTT and elastic-share capacity. Both modes honour the common
// flags, --scenario and --fast-forward included (bench_common.hpp).
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "measure/multivantage.hpp"

namespace {

int run_multivantage(slp::bench::Run& run) {
  using namespace slp;
  const auto& args = run.args();
  measure::MultiVantageCampaign::Config config;
  config.seed = args.seed;
  config.duration = run.flags().get_duration(
      "duration", Duration::hours(static_cast<std::int64_t>(24 * args.scale)));
  config.cadence = Duration::minutes(5);
  config.fleet = bench::parse_fleet(run.flags());
  run.start("Figure 1 (multi-vantage)",
            "the 11 anchor metros as measured terminals in one fleet");

  const auto result = run.sweep<measure::MultiVantageCampaign>(config);

  std::printf("fleet: %d terminals, %llu hot cells, %llu supercells "
              "(%llu terminals aggregated)\n\n",
              config.fleet.size, static_cast<unsigned long long>(result.hot_cells),
              static_cast<unsigned long long>(result.supercells),
              static_cast<unsigned long long>(result.aggregated_terminals));

  stats::TextTable table{{"vantage", "min", "p5", "p25", "median", "p75", "p95",
                          "down p50 (Mbps)"}};
  for (const auto& v : result.vantages) {
    std::vector<std::string> row = bench::boxplot_row(v.name, v.rtt_ms, "");
    row.back() = v.down_mbps.empty() ? "-" : stats::TextTable::num(v.down_mbps.median(), 1);
    table.add_row(row);
  }
  std::printf("%s", table.str().c_str());
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  for (const auto& v : result.vantages) {
    sent += v.probes_sent;
    lost += v.probes_lost;
  }
  std::printf("\nprobes sent: %llu, lost: %llu\n", static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(lost));
  std::printf("Take-away: every metro sees the same ~frame+propagation access floor; "
              "contention moves the capacity column, not the RTT floor.\n");
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  if (run.flags().get_bool("multivantage", false)) return run_multivantage(run);

  measure::PingCampaign::Config config;
  config.seed = args.seed;
  // Compressed campaign: same 5-minute cadence, fewer days (scale with
  // --scale; 1.0 ~ 2 days of pings, plenty for stable quantiles).
  config.duration = Duration::hours(static_cast<std::int64_t>(48 * args.scale));
  config.cadence = Duration::minutes(5);
  config.epochs = false;  // Figure 1 aggregates; epochs belong to Figure 2
  config.fleet = bench::parse_fleet(run.flags());
  run.start("Figure 1", "RTT distribution towards the 11 anchors (ping)");
  const auto result = run.sweep<measure::PingCampaign>(config);

  // The paper's published per-anchor reference points (median / min).
  const char* paper[] = {
      "46-52 / 24-28", "46-52 / 24-28", "46-52 / 24-28", "46-52 / 24-28",
      "~46-50 / ~24",  "~46-50 / ~24",  "~42 / 20.5",    "~42 / 20.5",
      "~130-150 / -",  "184 / -",       "270 / -",
  };

  stats::TextTable table{
      {"anchor", "min", "p5", "p25", "median", "p75", "p95", "paper med/min"}};
  for (std::size_t i = 0; i < result.anchors.size(); ++i) {
    table.add_row(bench::boxplot_row(result.anchors[i].name, result.anchors[i].rtt_ms,
                                     paper[i]));
  }
  std::printf("%s", table.str().c_str());
  std::printf("\npings sent: %llu, lost: %llu (%.2f%%)\n",
              static_cast<unsigned long long>(result.pings_sent),
              static_cast<unsigned long long>(result.pings_lost),
              100.0 * static_cast<double>(result.pings_lost) /
                  static_cast<double>(result.pings_sent));
  std::printf("Paper take-away: minimum latency ~20 ms for close destinations; "
              "distant anchors exit through the same European PoPs.\n");
  return run.finish();
}
