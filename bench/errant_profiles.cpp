// ERRANT artifact — the paper's released emulator model (§1, §4).
//
// Fits a Starlink profile from a (compressed) campaign of this simulator,
// prints it next to the reference profiles the paper's artifact bundles
// (3G/4G from MONROE, GEO SatCom, wired), and emits the netem command lines
// a user would install.
#include <cstdio>

#include "bench_common.hpp"
#include "emu/errant.hpp"
#include "measure/campaign.hpp"
#include "stats/moods_test.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("ERRANT artifact", "data-driven emulation profiles + netem export");

  // Gather Starlink samples: throughput from speedtests, RTT from pings.
  measure::SpeedtestCampaign::Config down_cfg;
  down_cfg.seed = args.seed;
  down_cfg.tests = args.scaled(8);
  const auto down = run.sweep<measure::SpeedtestCampaign>(down_cfg);

  measure::SpeedtestCampaign::Config up_cfg;
  up_cfg.seed = args.seed + 1;
  up_cfg.tests = args.scaled(8);
  up_cfg.download = false;
  const auto up = run.sweep<measure::SpeedtestCampaign>(up_cfg);

  measure::PingCampaign::Config ping_cfg;
  ping_cfg.seed = args.seed + 2;
  ping_cfg.duration = Duration::hours(6);
  ping_cfg.epochs = false;
  const auto pings = run.sweep<measure::PingCampaign>(ping_cfg);
  stats::Samples eu_rtts;
  for (const auto& anchor : pings.anchors) {
    if (anchor.european) eu_rtts.merge(anchor.rtt_ms);
  }

  measure::MessageCampaign::Config msg_cfg;
  msg_cfg.seed = args.seed + 3;
  msg_cfg.sessions = 2;
  const auto messages = run.sweep<measure::MessageCampaign>(msg_cfg);

  const emu::ErrantProfile starlink = emu::ErrantProfile::fit(
      "starlink", down.mbps, up.mbps, eu_rtts, messages.loss.loss_ratio);

  std::printf("fitted profile:\n  %s\n", starlink.describe().c_str());
  std::printf("  (paper-era expectations: down ~178, up ~17 Mbit/s, RTT ~50 ms, "
              "loss ~0.4%%)\n\n");

  std::printf("reference profiles bundled with the artifact:\n");
  for (const auto& profile : {emu::profile_4g_good(), emu::profile_3g(),
                              emu::profile_geo_satcom(), emu::profile_wired()}) {
    std::printf("  %s\n", profile.describe().c_str());
  }

  std::printf("\nnetem export of the fitted Starlink profile (median draw):\n");
  for (const auto& cmd : starlink.median().netem_commands()) {
    std::printf("  %s\n", cmd.c_str());
  }

  // Validation: samples drawn from the fitted profile should be
  // statistically indistinguishable from the campaign measurements (KS).
  {
    Rng vrng{args.seed + 99};
    std::vector<double> fitted_draws;
    for (std::size_t i = 0; i < down.mbps.size() * 50; ++i) {
      fitted_draws.push_back(starlink.sample(vrng).rate_down.to_mbps());
    }
    const auto ks = stats::ks_two_sample(down.mbps.values(), fitted_draws);
    std::printf("\nfit validation (downlink): KS D=%.3f p=%.3f -> %s\n", ks.d, ks.p_value,
                ks.p_value > 0.05 ? "fitted profile matches the campaign samples"
                                  : "distributions differ (small campaign sample)");
  }

  Rng rng{args.seed};
  std::printf("\nthree sampled emulation instances:\n");
  for (int i = 0; i < 3; ++i) {
    const auto params = starlink.sample(rng);
    std::printf("  #%d: down %.0f Mbit/s, up %.1f Mbit/s, one-way %.1f ms, "
                "jitter %.1f ms, loss %.2f%%\n",
                i + 1, params.rate_down.to_mbps(), params.rate_up.to_mbps(),
                params.delay_one_way.to_millis(), params.jitter.to_millis(),
                params.loss_ratio * 100.0);
  }
  return run.finish();
}
