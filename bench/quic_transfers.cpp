// The QUIC H3 and QUIC messages datasets (Table 1), run once and rendered as
// the three assets that read them, in paper order:
//
// Figure 3 + §3.1 "Latency under load" — RTT of every acknowledged packet
// during H3 bulk transfers, and during the low-rate messages workload.
//   Paper reference points (median / p95 / p99, ms):
//     H3 download: 95 / 175 / 210        H3 upload: 104 / 237 / 310
//     messages dl: 50 /  71 /  87        messages ul: 66 /  87 / 143
//
// Table 2 — QUIC packet loss ratios, plus §3.2's loss-event durations.
//   Paper: H3 down 1.56%, H3 up 1.96%, messages down 0.40%, messages up 0.45%.
//   Durations (H3 downloads): 244,008 events; median 49 us, p75 58 us,
//   p90 113 us, p95 1.5 ms, p99 7.5 ms; messages: p95 104 ms, p99 127 ms;
//   both contain occasional >1 s events (connectivity gaps).
//
// Figure 4 — measured loss-burst-length distributions (CDFs), H3 vs messages.
//   Shape targets: during H3 uploads most loss events are single packets;
//   H3 downloads have >75% multi-packet events; messages events are rarer but
//   longer when they happen (bursts of tens, occasionally >100 packets).
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
  // --fleet=N replaces the synthetic shared-cell load under all four sweeps
  // with N simulated terminals contending for real per-cell capacity
  // (src/fleet/); 0 keeps the paper-calibrated LoadProcess. The other fleet
  // flags (bench_common.hpp) shape that fleet.
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 3 / §3.1", "RTT under load: H3 bulk and messages, both directions");
  if (fleet_config.enabled()) {
    std::printf("shared-cell load: real contention from a %d-terminal fleet\n",
                fleet_config.size);
  }

  measure::H3Campaign::Config h3_down_cfg;
  h3_down_cfg.seed = args.seed;
  h3_down_cfg.download = true;
  h3_down_cfg.transfers = args.scaled(6);
  h3_down_cfg.fleet = fleet_config;
  const auto h3_down = run.sweep<measure::H3Campaign>(h3_down_cfg);

  measure::H3Campaign::Config h3_up_cfg;
  h3_up_cfg.seed = args.seed + 1;
  h3_up_cfg.download = false;
  h3_up_cfg.transfers = args.scaled(3);
  h3_up_cfg.bytes = 40ull * 1000 * 1000;  // uploads at ~17 Mbit/s take a while
  h3_up_cfg.fleet = fleet_config;
  const auto h3_up = run.sweep<measure::H3Campaign>(h3_up_cfg);

  // Six sessions per direction: the burst CDFs of Figure 4 see the fewest
  // (rare) message losses, so they set the count for all three assets.
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

  using stats::TextTable;
  {
    TextTable table{{"workload", "samples", "median", "p95", "p99", "paper med/p95/p99"}};
    print_row(table, "H3 download", h3_down.rtt_ms, "95 / 175 / 210");
    print_row(table, "H3 upload", h3_up.rtt_ms, "104 / 237 / 310");
    print_row(table, "messages download", msg_down.rtt_ms, "50 / 71 / 87");
    print_row(table, "messages upload", msg_up.rtt_ms, "66 / 87 / 143");
    std::printf("%s", table.str().c_str());
    std::printf("\nPaper take-aways to check: uploads inflate more than downloads "
                "(asymmetric draining); messages stay mostly under 100 ms, with the "
                "upload tail driven by quiche's missing pacing (25 kB bursts).\n");
  }

  bench::banner("Table 2 / §3.2", "QUIC packet loss ratios and loss-event durations");
  {
    TextTable table{{"", "H3 down", "H3 up", "messages down", "messages up"}};
    table.add_row({"measured", TextTable::pct(h3_down.loss.loss_ratio),
                   TextTable::pct(h3_up.loss.loss_ratio),
                   TextTable::pct(msg_down.loss.loss_ratio),
                   TextTable::pct(msg_up.loss.loss_ratio)});
    table.add_row({"paper", "1.56%", "1.96%", "0.40%", "0.45%"});
    std::printf("%s", table.str().c_str());
  }
  std::printf("\nloss-event durations:\n");
  duration_rows("H3 download", h3_down.loss,
                "median 49us, p75 58us, p90 113us, p95 1.5ms, p99 7.5ms, some >1s");
  duration_rows("messages download", msg_down.loss,
                "mostly <1ms, p95 104ms, p99 127ms, some >1s");
  std::printf("\nPaper take-away: loaded-link losses are frequent but short "
              "(congestion); unloaded losses are rare but long (medium).\n");

  bench::banner("Figure 4", "loss burst length distributions (H3 vs messages)");
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
