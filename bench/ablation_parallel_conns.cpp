// Ablation — parallel connections (§3.3).
//
// The paper's explanation for the Ookla-vs-H3 download gap: "regular
// speedtests use at least four concurrent TCP connections while the QUIC
// download uses one single connection, reacting more strongly to losses."
// This bench sweeps the connection count of the TCP speedtest on Starlink.
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Ablation: parallel connections",
            "Starlink download throughput vs TCP connection count");

  stats::TextTable table{{"connections", "p25", "median", "p75", "note"}};
  for (const int connections : {1, 2, 4, 8, 16}) {
    measure::SpeedtestCampaign::Config config;
    config.seed = args.seed;
    config.access = measure::AccessKind::kStarlink;
    config.tests = args.scaled(8);
    config.connections = connections;
    const auto result = run.sweep<measure::SpeedtestCampaign>(config);
    using stats::TextTable;
    table.add_row({std::to_string(connections),
                   TextTable::num(result.mbps.percentile(25), 0),
                   TextTable::num(result.mbps.median(), 0),
                   TextTable::num(result.mbps.percentile(75), 0),
                   connections == 1 ? "single flow, like the H3 transfers"
                   : connections == 8 ? "Ookla-class (paper median 178)"
                                      : ""});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nExpected shape: throughput grows with the pool and saturates; "
              "the 1-connection row sits noticeably below, explaining the H3 gap.\n");
  return run.finish();
}
