// Table 1 — overview of the datasets.
//
// The paper's campaign inventory, side by side with this reproduction's
// compressed equivalents (what each bench binary runs at --scale=1).
#include <cstdio>

#include "bench_common.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  run.start("Table 1", "overview of the datasets (paper vs reproduction)");

  stats::TextTable table{{"measure", "network", "paper duration", "paper target",
                          "reproduction (scale=1)"}};
  table.add_row({"Latency", "Starlink", "5 months", "11 anchors",
                 "48h @ 5min cadence (fig1) + 146d compressed (fig2)"});
  table.add_row({"Throughput", "Starlink", "4 months", "Ookla servers",
                 "16 tests x 12s x 8 conns (fig5)"});
  table.add_row({"", "SatCom", "2 weeks", "", "8 tests (fig5)"});
  table.add_row({"Web browsing", "Starlink", "4 months", "120 websites",
                 "40 visits over the 120-site catalog (fig6)"});
  table.add_row({"", "SatCom", "2 weeks", "", "25 visits (fig6)"});
  table.add_row({"QUIC H3", "Starlink", "5 months", "campus server",
                 "6 x 100MB down + 3 x 40MB up (fig3/4, table2)"});
  table.add_row({"QUIC messages", "Starlink", "5 months", "campus server",
                 "4-6 sessions x 2min x 25 msg/s (fig3/4, table2)"});
  std::printf("%s", table.str().c_str());
  std::printf("\nIncrease --scale to push any bench toward paper-scale sample"
              " counts; all campaigns are seeded and reproducible.\n");

  // This bench runs no simulation. It folds the one empty cell an idle
  // simulator yields, so the obs flags still write valid documents and
  // tooling can treat every bench uniformly.
  run.fold(sim::Simulator{}.take_obs());
  return run.finish();
}
