// Figure 2b (companion) — where the RTT comes from: per-component latency
// decomposition of the European-anchor ping timeline.
//
// Runs the Figure-2 ping campaign with --provenance forced ON, then prints
//   * the fig2-style RTT time series annotated with the dominant latency
//     cause per bin (propagation vs. queueing vs. handover stalls, ...);
//   * a stacked-component quantile/ECDF table from the merged per-component
//     breakdown (obs::breakdown_components), whose "measured" row is the
//     exact end-to-end RTT each component sum telescopes to.
//
// Shape targets: propagation dominates the flat ~50 ms band; the loaded
// late-April period shifts dominance toward queueing; handover-slot stalls
// appear as a heavy p95 tail rather than a median shift.
#include <cstdio>

#include "bench_common.hpp"
#include "measure/campaign.hpp"
#include "obs/breakdown.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  auto& args = run.args();
  args.provenance = true;  // the decomposition IS the figure
  run.start("Figure 2b", "RTT decomposition of the European-anchor timeline");

  measure::PingCampaign::Config config;
  config.seed = args.seed;
  config.duration = Duration::days(146);
  config.cadence = Duration::minutes(static_cast<std::int64_t>(120 / args.scale));
  config.epochs = true;
  const auto result = run.sweep<measure::PingCampaign>(config);

  // --- timeline with dominant cause per bin -----------------------------
  using stats::TextTable;
  stats::TextTable timeline{{"day", "median", "p95", "samples", "dominant", "mean ms"}};
  const auto rows = result.eu_timeline.rows();
  const std::size_t stride = std::max<std::size_t>(1, rows.size() / 24);
  for (std::size_t i = 0; i < rows.size(); i += stride) {
    const auto& row = rows[i];
    // eu_components mirrors eu_timeline bin-for-bin (same adds, same width),
    // so the bin holding this row is indexed by its start time.
    const auto bin =
        static_cast<std::size_t>(row.start.ns() / result.eu_timeline.bin_width().ns());
    int dominant = -1;
    double dominant_ms = 0.0;
    for (int c = 0; c < obs::kTagComponents; ++c) {
      if (static_cast<std::size_t>(c) >= result.eu_components.size()) break;
      if (bin >= result.eu_components[static_cast<std::size_t>(c)].bins()) continue;
      const stats::Samples& s = result.eu_components[static_cast<std::size_t>(c)].bin(bin);
      if (!s.empty() && s.mean() > dominant_ms) {
        dominant_ms = s.mean();
        dominant = c;
      }
    }
    timeline.add_row({TextTable::num(row.start.to_seconds() / 86400.0, 1),
                      TextTable::num(row.median, 1), TextTable::num(row.p95, 1),
                      std::to_string(row.count),
                      dominant < 0 ? "-" : obs::component_name(dominant),
                      TextTable::num(dominant_ms, 2)});
  }
  std::printf("%s", timeline.str().c_str());

  // --- stacked component distribution ------------------------------------
  const stats::KeyedSamples& comps = result.obs.breakdown_components;
  double measured_sum = 0.0;
  if (const auto it = comps.groups().find(obs::kMeasured); it != comps.groups().end()) {
    measured_sum = it->second.summary.sum();
  }
  std::printf("\ncomponent distribution over all tagged deliveries (ms):\n");
  stats::TextTable table{{"component", "count", "mean", "p50", "p95", "max", "share"}};
  for (const auto& [key, group] : comps.groups()) {
    const auto component = static_cast<int>(key);
    const double share =
        measured_sum > 0.0 ? 100.0 * group.summary.sum() / measured_sum : 0.0;
    table.add_row({obs::component_name(component), std::to_string(group.summary.count()),
                   TextTable::num(group.summary.mean(), 3),
                   TextTable::num(comps.quantile(key, 0.5), 3),
                   TextTable::num(comps.quantile(key, 0.95), 3),
                   TextTable::num(group.summary.max(), 3),
                   component == obs::kMeasured ? "100.0" : TextTable::num(share, 1)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(components sum exactly to \"measured\" per packet; \"share\" is the\n"
              " fraction of total end-to-end latency each stage accounts for)\n");
  return run.finish();
}
