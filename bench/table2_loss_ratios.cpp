// Table 2 — QUIC packet loss ratios, plus §3.2's loss-event durations.
//
// Paper: H3 down 1.56%, H3 up 1.96%, messages down 0.40%, messages up 0.45%.
// Durations (H3 downloads): 244,008 events; median 49 us, p75 58 us,
// p90 113 us, p95 1.5 ms, p99 7.5 ms; messages: p95 104 ms, p99 127 ms;
// both contain occasional >1 s events (connectivity gaps).
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"

namespace {

void duration_rows(const char* name, const slp::measure::LossAnalyzer::Report& report,
                   const char* paper) {
  const auto& d = report.event_durations_ms;
  if (d.empty()) {
    std::printf("  %s: no loss events captured\n", name);
    return;
  }
  std::printf("  %-18s events=%llu median=%.3fms p75=%.3fms p90=%.3fms p95=%.1fms "
              "p99=%.1fms outages(>1s)=%llu\n",
              name, static_cast<unsigned long long>(report.loss_events), d.median(),
              d.percentile(75), d.percentile(90), d.percentile(95), d.percentile(99),
              static_cast<unsigned long long>(report.outage_events));
  std::printf("  %-18s paper: %s\n", "", paper);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Table 2 / §3.2", "QUIC packet loss ratios and loss-event durations");

  measure::H3Campaign::Config h3_down_cfg;
  h3_down_cfg.seed = args.seed;
  h3_down_cfg.download = true;
  h3_down_cfg.transfers = args.scaled(6);
  const auto h3_down = run.sweep<measure::H3Campaign>(h3_down_cfg);

  measure::H3Campaign::Config h3_up_cfg;
  h3_up_cfg.seed = args.seed + 1;
  h3_up_cfg.download = false;
  h3_up_cfg.transfers = args.scaled(3);
  h3_up_cfg.bytes = 40ull * 1000 * 1000;
  const auto h3_up = run.sweep<measure::H3Campaign>(h3_up_cfg);

  measure::MessageCampaign::Config msg_down_cfg;
  msg_down_cfg.seed = args.seed + 2;
  msg_down_cfg.upload = false;
  msg_down_cfg.sessions = args.scaled(5);
  const auto msg_down = run.sweep<measure::MessageCampaign>(msg_down_cfg);

  measure::MessageCampaign::Config msg_up_cfg;
  msg_up_cfg.seed = args.seed + 3;
  msg_up_cfg.upload = true;
  msg_up_cfg.sessions = args.scaled(5);
  const auto msg_up = run.sweep<measure::MessageCampaign>(msg_up_cfg);

  using stats::TextTable;
  stats::TextTable table{{"", "H3 down", "H3 up", "messages down", "messages up"}};
  table.add_row({"measured", TextTable::pct(h3_down.loss.loss_ratio),
                 TextTable::pct(h3_up.loss.loss_ratio),
                 TextTable::pct(msg_down.loss.loss_ratio),
                 TextTable::pct(msg_up.loss.loss_ratio)});
  table.add_row({"paper", "1.56%", "1.96%", "0.40%", "0.45%"});
  std::printf("%s", table.str().c_str());

  std::printf("\nloss-event durations:\n");
  duration_rows("H3 download", h3_down.loss,
                "median 49us, p75 58us, p90 113us, p95 1.5ms, p99 7.5ms, some >1s");
  duration_rows("messages download", msg_down.loss,
                "mostly <1ms, p95 104ms, p99 127ms, some >1s");

  std::printf("\nPaper take-away: loaded-link losses are frequent but short "
              "(congestion); unloaded losses are rare but long (medium).\n");
  return run.finish();
}
