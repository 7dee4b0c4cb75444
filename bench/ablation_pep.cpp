// Ablation — the SatCom PEP (§1, §3.5).
//
// PEPs exist because vanilla TCP is miserable over a 600 ms pipe. This bench
// runs the SatCom download speedtest and the web QoE workload with the PEP
// enabled (the paper's measured reality) and disabled (the counterfactual
// that motivated deploying PEPs — and the situation QUIC is always in).
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Ablation: PEP", "SatCom with and without the splitting proxy");

  stats::TextTable table{{"configuration", "ookla down median", "web onLoad median",
                          "conn setup mean", "note"}};
  for (const bool pep : {true, false}) {
    measure::SpeedtestCampaign::Config st_config;
    st_config.seed = args.seed;
    st_config.access = measure::AccessKind::kSatCom;
    st_config.tests = args.scaled(5);
    st_config.satcom_pep = pep;
    measure::WebCampaign::Config web_config;
    web_config.seed = args.seed + 1;
    web_config.access = measure::AccessKind::kSatCom;
    web_config.visits = args.scaled(12);
    web_config.satcom_pep = pep;

    const auto st = run.sweep<measure::SpeedtestCampaign>(st_config);
    const auto web = run.sweep<measure::WebCampaign>(web_config);
    using stats::TextTable;
    table.add_row({pep ? "PEP enabled (paper)" : "PEP disabled",
                   TextTable::num(st.mbps.median(), 0),
                   TextTable::num(web.onload_s.median(), 2),
                   TextTable::num(web.setup_ms.mean(), 0) + " ms",
                   pep ? "paper: 82 Mbit/s, onLoad 10.9 s" : "counterfactual"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nExpected shape: disabling the PEP collapses bulk throughput "
              "(slow start over 600 ms) while connection setup stays ~3 RTT "
              "either way — PEPs cannot fix handshakes, which is why SatCom "
              "web QoE is poor even with them.\n");
  return run.finish();
}
