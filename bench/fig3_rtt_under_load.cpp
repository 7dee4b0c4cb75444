// Figure 3 + §3.1 "Latency under load" — RTT of every acknowledged packet
// during H3 bulk transfers, and during the low-rate messages workload.
//
// Paper reference points (median / p95 / p99, ms):
//   H3 download: 95 / 175 / 210        H3 upload: 104 / 237 / 310
//   messages dl: 50 /  71 /  87        messages ul: 66 /  87 / 143
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

namespace {

void print_row(slp::stats::TextTable& table, const std::string& name,
               const slp::stats::Samples& rtt_ms, const std::string& paper) {
  using slp::stats::TextTable;
  if (rtt_ms.empty()) {
    table.add_row({name, "-", "-", "-", "-", paper});
    return;
  }
  table.add_row({name, std::to_string(rtt_ms.size()), TextTable::num(rtt_ms.median(), 0),
                 TextTable::num(rtt_ms.percentile(95), 0),
                 TextTable::num(rtt_ms.percentile(99), 0), paper});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  // --fleet=N replaces the synthetic shared-cell load under the H3 transfers
  // and the message sessions with N simulated terminals contending for real
  // per-cell capacity (src/fleet/); 0 keeps the paper-calibrated
  // LoadProcess. The other fleet flags (bench_common.hpp) shape that fleet.
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 3 / §3.1", "RTT under load: H3 bulk and messages, both directions");
  if (fleet_config.enabled()) {
    std::printf("shared-cell load: real contention from a %d-terminal fleet\n",
                fleet_config.size);
  }

  stats::TextTable table{{"workload", "samples", "median", "p95", "p99", "paper med/p95/p99"}};

  {
    measure::H3Campaign::Config config;
    config.seed = args.seed;
    config.download = true;
    config.transfers = args.scaled(6);
    config.fleet = fleet_config;
    const auto down = run.sweep<measure::H3Campaign>(config);
    print_row(table, "H3 download", down.rtt_ms, "95 / 175 / 210");
  }
  {
    measure::H3Campaign::Config config;
    config.seed = args.seed + 1;
    config.download = false;
    config.transfers = args.scaled(3);
    config.fleet = fleet_config;
    config.bytes = 40ull * 1000 * 1000;  // uploads at ~17 Mbit/s take a while
    const auto up = run.sweep<measure::H3Campaign>(config);
    print_row(table, "H3 upload", up.rtt_ms, "104 / 237 / 310");
  }
  {
    measure::MessageCampaign::Config config;
    config.seed = args.seed + 2;
    config.upload = false;
    config.sessions = args.scaled(4);
    config.fleet = fleet_config;
    const auto down = run.sweep<measure::MessageCampaign>(config);
    print_row(table, "messages download", down.rtt_ms, "50 / 71 / 87");
  }
  {
    measure::MessageCampaign::Config config;
    config.seed = args.seed + 3;
    config.upload = true;
    config.sessions = args.scaled(4);
    config.fleet = fleet_config;
    const auto up = run.sweep<measure::MessageCampaign>(config);
    print_row(table, "messages upload", up.rtt_ms, "66 / 87 / 143");
  }

  std::printf("%s", table.str().c_str());
  std::printf("\nPaper take-aways to check: uploads inflate more than downloads "
              "(asymmetric draining); messages stay mostly under 100 ms, with the "
              "upload tail driven by quiche's missing pacing (25 kB bursts).\n");
  return run.finish();
}
