// Figure 5 — throughput distributions: Ookla-style TCP speedtests on
// Starlink and SatCom, and single-connection QUIC H3 on Starlink.
//
// Paper reference points (Mbit/s):
//   Starlink Ookla down: median 178, max 386; up: median 17, max 64
//   SatCom Ookla down: median 82; up: median 4.5
//   Starlink H3 down: mostly 100-150; H3 up: ~17, more stable than TCP
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

namespace {

slp::stats::Samples speedtest(slp::bench::Run& run, std::uint64_t seed,
                              slp::measure::AccessKind access, bool download, int tests,
                              const slp::fleet::Fleet::Config& fleet) {
  slp::measure::SpeedtestCampaign::Config config;
  config.seed = seed;
  config.access = access;
  config.download = download;
  config.tests = tests;
  config.fleet = fleet;  // ignored for SatCom (synthetic load stays)
  return std::move(run.sweep<slp::measure::SpeedtestCampaign>(config).mbps);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  // --fleet=N replaces the synthetic shared-cell load under the Starlink
  // tests with N simulated terminals contending for real per-cell capacity
  // (src/fleet/); 0 keeps the paper-calibrated LoadProcess. The other
  // fleet flags (bench_common.hpp) shape that fleet.
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 5", "throughput distributions (Ookla TCP vs QUIC H3)");
  if (fleet_config.enabled()) {
    std::printf("shared-cell load: real contention from a %d-terminal fleet\n",
                fleet_config.size);
  }

  const int tests = args.scaled(16);
  stats::TextTable table{
      {"experiment", "min", "p5", "p25", "median", "p75", "p95", "paper median"}};

  table.add_row(bench::boxplot_row(
      "starlink ookla down",
      speedtest(run, args.seed, measure::AccessKind::kStarlink, true, tests, fleet_config),
      "178 (max 386)"));
  table.add_row(bench::boxplot_row(
      "starlink ookla up",
      speedtest(run, args.seed + 1, measure::AccessKind::kStarlink, false, tests, fleet_config),
      "17 (max 64)"));
  table.add_row(bench::boxplot_row(
      "satcom ookla down",
      speedtest(run, args.seed + 2, measure::AccessKind::kSatCom, true, std::max(2, tests / 2),
                {}),
      "82"));
  table.add_row(bench::boxplot_row(
      "satcom ookla up",
      speedtest(run, args.seed + 3, measure::AccessKind::kSatCom, false,
                std::max(2, tests / 2), {}),
      "4.5"));

  {
    measure::H3Campaign::Config config;
    config.seed = args.seed + 4;
    config.download = true;
    config.transfers = args.scaled(8);
    config.fleet = fleet_config;
    const auto h3 = run.sweep<measure::H3Campaign>(config);
    table.add_row(bench::boxplot_row("starlink H3 down", h3.goodput_mbps, "100-150"));
  }
  {
    measure::H3Campaign::Config config;
    config.seed = args.seed + 5;
    config.download = false;
    config.transfers = args.scaled(4);
    config.bytes = 40ull * 1000 * 1000;
    config.fleet = fleet_config;
    const auto h3 = run.sweep<measure::H3Campaign>(config);
    table.add_row(bench::boxplot_row("starlink H3 up", h3.goodput_mbps, "~17, stable"));
  }

  std::printf("%s", table.str().c_str());
  std::printf("\nPaper take-aways to check: Starlink beats SatCom both ways; "
              "single-connection QUIC downloads sit below the multi-connection "
              "TCP tests; uploads agree across protocols.\n");
  return run.finish();
}
