// Figure 6 — web browsing QoE: onLoad and SpeedIndex ECDFs for Starlink,
// SatCom and wired, plus the connection-setup numbers of §3.4.
//
// Paper reference points:
//   onLoad medians: Starlink 2.12 s (IQR 1.60-2.78), SatCom 10.91 s
//   (8.36-13.59), wired 1.24 s.
//   SpeedIndex medians: Starlink 1.82 s, SatCom 8.19 s, wired 1.0 s.
//   Connection setup: Starlink 167 ms vs SatCom 2030 ms; ~15 connections
//   per visit on average.
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "stats/ecdf.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  // --fleet=N loads the Starlink cells with simulated neighbours for the
  // Starlink rows (plus the continental/aggregation knobs, bench_common.hpp);
  // SatCom/wired accesses ignore it.
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 6", "web QoE: onLoad and SpeedIndex across accesses");

  struct Row {
    const char* name;
    measure::AccessKind access;
    int visits;
    const char* paper_onload;
    const char* paper_speedindex;
  };
  const Row rows[] = {
      {"starlink", measure::AccessKind::kStarlink, args.scaled(40), "2.12 (1.60-2.78)", "1.82"},
      {"satcom", measure::AccessKind::kSatCom, args.scaled(25), "10.91 (8.36-13.59)", "8.19"},
      {"wired", measure::AccessKind::kWired, args.scaled(40), "1.24", "1.0"},
  };

  stats::TextTable onload{{"access", "p10", "p25", "median", "p75", "p90", "paper median"}};
  stats::TextTable speedindex{{"access", "p10", "p25", "median", "p75", "p90", "paper median"}};
  std::vector<measure::WebCampaign::Result> results;

  for (const Row& row : rows) {
    measure::WebCampaign::Config config;
    config.seed = args.seed;
    config.access = row.access;
    config.visits = row.visits;
    config.fleet = fleet_config;
    const auto result = run.sweep<measure::WebCampaign>(config);
    results.push_back(result);
    using stats::TextTable;
    auto table_row = [&](const stats::Samples& s, const char* paper) {
      return std::vector<std::string>{row.name,
                                      TextTable::num(s.percentile(10), 2),
                                      TextTable::num(s.percentile(25), 2),
                                      TextTable::num(s.median(), 2),
                                      TextTable::num(s.percentile(75), 2),
                                      TextTable::num(s.percentile(90), 2),
                                      paper};
    };
    onload.add_row(table_row(result.onload_s, row.paper_onload));
    speedindex.add_row(table_row(result.speedindex_s, row.paper_speedindex));
  }

  std::printf("(a) onLoad, seconds:\n%s", onload.str().c_str());
  std::printf("\n(b) SpeedIndex, seconds:\n%s", speedindex.str().c_str());

  std::printf("\nconnection setup (TCP+TLS) and pooling:\n");
  const char* setup_paper[] = {"167 ms", "2030 ms", "(fast)"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("  %-9s mean setup %s, mean connections/visit %.1f (paper: ~15), "
                "visits %d (timeouts %d)\n",
                rows[i].name,
                bench::vs(results[i].setup_ms.mean(), setup_paper[i], 0).c_str(),
                results[i].mean_connections, results[i].visits_completed,
                results[i].visits_timed_out);
  }
  std::printf("\nPaper take-away: Starlink is 75-80%% faster than SatCom on "
              "QoE metrics and close to wired.\n");
  return run.finish();
}
