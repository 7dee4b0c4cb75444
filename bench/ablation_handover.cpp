// Ablation — the 15-second handover structure.
//
// Starlink reassigns user terminals to satellites on a 15 s grid; the paper
// models this as the source of slot-to-slot RTT dispersion (Figure 1's
// boxplot width). This bench probes at 250 ms cadence and folds the RTT
// series onto the slot phase: latency is near-constant inside a slot and
// steps at slot boundaries; disabling the slot penalty shrinks the steps to
// the geometry-only component.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/ping.hpp"
#include "bench_common.hpp"
#include "measure/testbed.hpp"
#include "runner/pool.hpp"

namespace {

using namespace slp;

struct FoldResult {
  std::array<stats::Samples, 15> by_phase;  ///< second within the 15 s slot
  stats::Samples slot_medians;
  stats::Samples boundary_steps_ms;
  obs::Snapshot obs;
};

FoldResult probe_phase_fold(const bench::CommonArgs& args, std::uint64_t seed,
                            Duration slot_penalty) {
  measure::TestbedConfig config;
  args.apply(config);
  config.seed = seed;
  config.with_satcom = false;
  config.starlink.slot_penalty_max = slot_penalty;
  measure::Testbed bed{config};

  FoldResult result;
  std::vector<std::pair<double, double>> series;  // (t_seconds, rtt_ms)
  std::vector<std::unique_ptr<apps::PingApp>> live;

  const int probes = 1200;  // 5 minutes at 250 ms
  for (int i = 0; i < probes; ++i) {
    const TimePoint at = TimePoint::epoch() + Duration::millis(250) * static_cast<double>(i);
    bed.sim().schedule_at(at, [&, at] {
      apps::PingApp::Config ping_config;
      ping_config.target = bed.anchor(0).host->addr();
      ping_config.count = 1;
      live.push_back(std::make_unique<apps::PingApp>(
          bed.client(measure::AccessKind::kStarlink), ping_config));
      apps::PingApp* ping = live.back().get();
      ping->on_complete = [&, at](const std::vector<apps::PingApp::Probe>& probes_out) {
        if (!probes_out.empty() && !probes_out[0].lost) {
          series.emplace_back(at.to_seconds(), probes_out[0].rtt.to_millis());
        }
      };
      ping->start();
    });
  }
  bed.sim().run();

  // Fold and detect slot-boundary steps.
  stats::Samples current_slot;
  std::int64_t current_index = -1;
  double previous_median = -1.0;
  for (const auto& [t, rtt] : series) {
    const auto phase = static_cast<std::size_t>(static_cast<std::int64_t>(t) % 15);
    result.by_phase[phase].add(rtt);
    const auto slot = static_cast<std::int64_t>(t / 15.0);
    if (slot != current_index) {
      if (!current_slot.empty()) {
        const double median = current_slot.median();
        result.slot_medians.add(median);
        if (previous_median >= 0.0) {
          result.boundary_steps_ms.add(std::abs(median - previous_median));
        }
        previous_median = median;
      }
      current_slot.clear();
      current_index = slot;
    }
    current_slot.add(rtt);
  }
  result.obs = bed.sim().take_obs();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run{argc, argv};
  const auto& args = run.args();
  run.start("Ablation: handovers", "RTT structure on the 15-second scheduling grid");

  // One cell per (penalty, seed replication); folds append in cell order so
  // the output is --jobs invariant.
  const double penalties_ms[] = {8.0, 0.0};
  const auto seeds = static_cast<std::size_t>(args.seeds);
  runner::Pool pool{args.jobs};
  std::vector<FoldResult> cells = runner::run_indexed(pool, 2 * seeds, [&](std::size_t cell) {
    return probe_phase_fold(args, runner::cell_seed(args.seed, cell % seeds),
                            Duration::from_millis(penalties_ms[cell / seeds]));
  });

  // Fold obs by cell index before the fold below moves cells out.
  for (const FoldResult& c : cells) run.fold(c.obs);

  for (std::size_t p = 0; p < 2; ++p) {
    const double penalty_ms = penalties_ms[p];
    FoldResult fold = std::move(cells[p * seeds]);
    for (std::size_t s = 1; s < seeds; ++s) {
      const FoldResult& from = cells[p * seeds + s];
      for (std::size_t i = 0; i < fold.by_phase.size(); ++i) {
        fold.by_phase[i].merge(from.by_phase[i]);
      }
      fold.slot_medians.merge(from.slot_medians);
      fold.boundary_steps_ms.merge(from.boundary_steps_ms);
    }
    std::printf("\nslot penalty U(0, %.0f ms):\n  median RTT by second-in-slot:", penalty_ms);
    for (const auto& phase : fold.by_phase) {
      std::printf(" %5.1f", phase.empty() ? 0.0 : phase.median());
    }
    std::printf("\n  per-slot medians: p25 %.1f / p75 %.1f ms | slot-boundary "
                "median |step|: %.1f ms (n=%zu)\n",
                fold.slot_medians.percentile(25), fold.slot_medians.percentile(75),
                fold.boundary_steps_ms.empty() ? 0.0 : fold.boundary_steps_ms.median(),
                fold.boundary_steps_ms.size());
  }
  std::printf("\nExpected shape: with the per-slot allocation penalty the slot "
              "medians disperse and step by several ms at boundaries (the "
              "mechanism behind Figure 1's box width); without it only the "
              "geometry component remains.\n");
  return run.finish();
}
