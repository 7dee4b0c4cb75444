// Figure 2 — RTT towards the European anchors over the five-month campaign
// (6-hour bins, percentile bands), plus the Mood's-median-test paragraph.
//
// Shape targets: flat ~50 ms median band between 40 (p25) and 60 ms (p75);
// a small downward step around Feb 11 (constellation densification); a rise
// across late April / early May; and hour-of-day samples whose medians a
// Mood's test cannot distinguish (no diurnal pattern).
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "stats/moods_test.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  // --fleet=N replaces the synthetic shared-cell load under the ping rounds
  // with N simulated terminals contending for real per-cell capacity
  // (src/fleet/); 0 keeps the paper-calibrated LoadProcess. The other
  // fleet flags (bench_common.hpp) shape that fleet.
  const fleet::Fleet::Config fleet_config = bench::parse_fleet(run.flags());
  run.start("Figure 2", "RTT to European anchors over the campaign timeline");
  if (fleet_config.enabled()) {
    std::printf("shared-cell load: real contention from a %d-terminal fleet\n",
                fleet_config.size);
  }

  measure::PingCampaign::Config config;
  config.seed = args.seed;
  config.duration = Duration::days(146);
  // Compressed cadence (the paper pinged every 5 minutes; we default to a
  // sparser grid over the full timeline — same bins, fewer samples per bin).
  config.cadence = Duration::minutes(static_cast<std::int64_t>(120 / args.scale));
  config.epochs = true;
  config.fleet = fleet_config;
  const auto result = run.sweep<measure::PingCampaign>(config);

  // One row per ~6-day stride of 6h bins to keep the series readable.
  stats::TextTable table{{"day", "min", "p25", "median", "p75", "p95", "samples"}};
  const auto rows = result.eu_timeline.rows();
  const std::size_t stride = std::max<std::size_t>(1, rows.size() / 24);
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    const auto& row = rows[i];
    using stats::TextTable;
    table.add_row({TextTable::num(row.start.to_seconds() / 86400.0, 1),
                   TextTable::num(row.min, 1), TextTable::num(row.p25, 1),
                   TextTable::num(row.median, 1), TextTable::num(row.p75, 1),
                   TextTable::num(row.p95, 1), std::to_string(row.count)});
  }
  std::printf("%s", table.str().c_str());

  // The Feb-11 step and late-April rise, quantified.
  stats::Samples before_step;
  stats::Samples after_step;
  stats::Samples late_april;
  for (const auto& row : rows) {
    const double day = row.start.to_seconds() / 86400.0;
    if (day < 53) before_step.add(row.median);
    if (day >= 55 && day < 120) after_step.add(row.median);
    if (day >= 126 && day < 138) late_april.add(row.median);
  }
  if (!before_step.empty() && !after_step.empty() && !late_april.empty()) {
    std::printf("\nepoch medians of 6h-bin medians:\n");
    std::printf("  before Feb 11 : %s ms\n",
                bench::vs(before_step.median(), "slightly above the rest").c_str());
    std::printf("  Feb 11-Apr 24 : %s ms (paper: a few ms below the early period)\n",
                stats::TextTable::num(after_step.median(), 1).c_str());
    std::printf("  late Apr-May  : %s ms (paper: visible rise)\n",
                stats::TextTable::num(late_april.median(), 1).c_str());
  }

  // Hour-of-day analysis (paper: "distribution of RTT is rather flat over
  // the hours of the day", Mood's test consistent with equal medians).
  // Samples within a ping round share the same 15s scheduling slot, so the
  // raw test would be pseudo-replicated; subsample one observation per round
  // per hour group before testing, and report the effect size directly.
  std::vector<std::vector<double>> groups;
  double min_median = 1e9;
  double max_median = -1e9;
  for (const auto& hour_samples : result.eu_by_hour) {
    if (hour_samples.size() < 48) continue;
    stats::Samples all{std::vector<double>(hour_samples.begin(), hour_samples.end())};
    min_median = std::min(min_median, all.median());
    max_median = std::max(max_median, all.median());
    const std::size_t stride = std::max<std::size_t>(1, hour_samples.size() / 1000);
    std::vector<double> sub;
    for (std::size_t i = 0; i < hour_samples.size(); i += stride) {
      sub.push_back(hour_samples[i]);
    }
    groups.push_back(std::move(sub));
  }
  if (!groups.empty()) {
    std::printf("\nhour-of-day medians span %.2f-%.2f ms (flat: spread %.2f ms)\n",
                min_median, max_median, max_median - min_median);
  }
  const auto moods = stats::moods_median_test(groups);
  if (moods.valid) {
    std::printf("Mood's median test across %zu hour-of-day groups (decorrelated "
                "subsample): chi2=%.1f p=%.3f (paper: same median across hours)\n",
                groups.size(), moods.chi2, moods.p_value);
  }
  return run.finish();
}
