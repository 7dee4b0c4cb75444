// Ablation — quiche's missing pacing (§3.1).
//
// The paper attributes the messages-upload RTT inflation to quiche not
// pacing: "The largest messages (25 kB) are thus stacked in the network's
// buffers making the RTT increase lightly." This bench re-runs the upload
// messages workload with pacing off (quiche ba87786) and on, and shows the
// RTT tail contracting.
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Ablation: pacing", "messages-upload RTT with and without QUIC pacing");

  stats::TextTable table{
      {"configuration", "median", "p95", "p99", "msg latency p99", "paper"}};
  for (const bool pacing : {false, true}) {
    measure::MessageCampaign::Config config;
    config.seed = args.seed;
    config.upload = true;
    config.sessions = args.scaled(4);
    config.pacing = pacing;
    const auto result = run.sweep<measure::MessageCampaign>(config);
    using stats::TextTable;
    table.add_row({pacing ? "pacing on" : "pacing off (quiche)",
                   TextTable::num(result.rtt_ms.median(), 0),
                   TextTable::num(result.rtt_ms.percentile(95), 0),
                   TextTable::num(result.rtt_ms.percentile(99), 0),
                   TextTable::num(result.latency_ms.percentile(99), 0),
                   pacing ? "(counterfactual)" : "66 / 87 / 143"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nReading: for this low-rate flow cwnd stays far above the BDP, so\n"
              "cwnd/srtt pacing still releases a 25 kB message near line rate — the\n"
              "upload inflation is dominated by the burst's own serialization, and\n"
              "pacing moves the tail only slightly. Consistent with the paper's\n"
              "modest effect (+16 ms on the median vs downloads).\n");
  return run.finish();
}
