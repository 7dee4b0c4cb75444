// Figure 4 — measured loss-burst-length distributions (CDFs), H3 vs messages.
//
// Shape targets: during H3 uploads most loss events are single packets;
// H3 downloads have >75% multi-packet events; messages events are rarer but
// longer when they happen (bursts of tens, occasionally >100 packets).
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

namespace {

void print_cdf(const char* name, const slp::stats::IntHistogram& bursts) {
  std::printf("%s (events: %llu)\n", name,
              static_cast<unsigned long long>(bursts.total()));
  if (bursts.total() == 0) return;
  std::printf("  burst length : ");
  for (const std::uint64_t len : {1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21}) {
    std::printf("%6llu", static_cast<unsigned long long>(len));
  }
  std::printf("\n  CDF          : ");
  for (const std::uint64_t len : {1, 2, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21}) {
    std::printf("%6.2f", bursts.cdf(len));
  }
  std::printf("\n  max burst    : %llu packets\n",
              static_cast<unsigned long long>(bursts.max_value()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  // --fleet=N puts simulated neighbour contention under all four transfers
  // (plus the continental/aggregation knobs, bench_common.hpp).
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 4", "loss burst length distributions (H3 vs messages)");

  measure::H3Campaign::Config h3_down_cfg;
  h3_down_cfg.seed = args.seed;
  h3_down_cfg.transfers = args.scaled(6);
  h3_down_cfg.fleet = fleet_config;
  const auto h3_down = run.sweep<measure::H3Campaign>(h3_down_cfg);

  measure::H3Campaign::Config h3_up_cfg;
  h3_up_cfg.seed = args.seed + 1;
  h3_up_cfg.download = false;
  h3_up_cfg.transfers = args.scaled(3);
  h3_up_cfg.bytes = 40ull * 1000 * 1000;
  h3_up_cfg.fleet = fleet_config;
  const auto h3_up = run.sweep<measure::H3Campaign>(h3_up_cfg);

  measure::MessageCampaign::Config msg_down_cfg;
  msg_down_cfg.seed = args.seed + 2;
  msg_down_cfg.upload = false;
  msg_down_cfg.sessions = args.scaled(6);
  msg_down_cfg.fleet = fleet_config;
  const auto msg_down = run.sweep<measure::MessageCampaign>(msg_down_cfg);

  measure::MessageCampaign::Config msg_up_cfg;
  msg_up_cfg.seed = args.seed + 3;
  msg_up_cfg.upload = true;
  msg_up_cfg.sessions = args.scaled(6);
  msg_up_cfg.fleet = fleet_config;
  const auto msg_up = run.sweep<measure::MessageCampaign>(msg_up_cfg);

  std::printf("(a) H3 transfers — paper: uploads mostly single-packet events; "
              ">75%% of download events span several packets\n");
  print_cdf("H3 download", h3_down.loss.burst_lengths);
  print_cdf("H3 upload", h3_up.loss.burst_lengths);

  std::printf("\n(b) messaging transfers — paper: rarer events, longer bursts, "
              "occasionally >100 packets\n");
  print_cdf("messages download", msg_down.loss.burst_lengths);
  print_cdf("messages upload", msg_up.loss.burst_lengths);
  return run.finish();
}
