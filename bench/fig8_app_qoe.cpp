// Figure 8 (application-QoE extension) — ABR video, videoconferencing, and
// game traffic as first-class workloads on the Starlink access.
//
// The paper measures the network primitives (RTT, loss, throughput); the
// follow-up literature ("A Multifaceted Look at Starlink Performance")
// measures what those primitives do to real applications. This regenerator
// closes that loop on the simulated testbed: per-application QoE
// distributions plus the *slot-phase* view — every impairment keyed by
// second-of-slot within the 15 s handover grid — so the headline finding
// (rebuffer events, MOS dips, and lag spikes cluster at the slot boundary)
// is a one-glance check.
//
// Unless --scenario overrides it, every app runs twice: once under clear
// sky and once under a built-in "handover storm" (a scenario::maintenance
// timeline: one forced reconfiguration blip per 15 s slot — the severe end
// of the handover-rate axis). The storm run is where the boundary
// clustering becomes unmistakable; the clear-sky run shows the baseline
// penalty-step signature.
//
// Flags beyond the common set (bench_common.hpp):
//   --app=NAME        abr | vc | game | all (default all)
//   --sessions=N      watch sessions / calls / matches per campaign
//   --duration=DUR    per-session content length (watch / call / match)
//   --storm-blip=DUR  storm gate closure per 15 s slot (default 2s; 0
//                     skips the storm runs)
//   --fleet=N         simulated neighbour terminals (load under the QoE)
//   --fleet-mix=NAME  neighbour traffic mix (default|streaming|realtime|mixed)
//   plus --scenario=PATH for the rain/outage ablations (EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "measure/qoe_campaign.hpp"
#include "mobility/routes.hpp"

namespace {

using namespace slp;

/// One variant of a campaign run: its label and the timeline under it.
struct Variant {
  std::string label;
  std::shared_ptr<const scenario::Scenario> scenario;
};

/// The variants an app runs: the user's --scenario if given, otherwise
/// clear sky plus the built-in handover storm over `horizon`.
std::vector<Variant> variants(const bench::CommonArgs& args, Duration horizon,
                              Duration storm_blip) {
  if (args.scenario != nullptr) return {{"--scenario " + args.scenario->name, args.scenario}};
  std::vector<Variant> v{{"clear sky", nullptr}};
  if (storm_blip > Duration::zero()) {
    // Blips start one slot in so connection handshakes complete cleanly;
    // every blip lands on the 15 s grid (slot phase 0).
    auto storm = std::make_shared<scenario::Scenario>();
    storm->name = "handover-storm";
    storm->maintenance(TimePoint::epoch() + Duration::seconds(15),
                       TimePoint::epoch() + horizon, Duration::seconds(15), storm_blip);
    storm->validate();
    v.push_back({"handover storm", std::move(storm)});
  }
  return v;
}

/// Aggregated phase histogram: event counts (or MOS means) for each second
/// of the 15 s handover slot, boundary phases marked.
void report_phases(const char* what, const stats::KeyedSamples& by_phase, bool mos) {
  if (by_phase.empty()) {
    std::printf("%s by slot phase: none recorded\n", what);
    return;
  }
  std::printf("%s by second-of-slot (15 s handover grid, * = slot boundary):\n", what);
  for (std::uint64_t phase = 0; phase < 15; ++phase) {
    const auto it = by_phase.groups().find(phase);
    const char* mark = (phase == 0 || phase == 14) ? "*" : " ";
    if (it == by_phase.groups().end()) {
      std::printf("  %s%2llu s: -\n", mark, static_cast<unsigned long long>(phase));
    } else if (mos) {
      std::printf("  %s%2llu s: mean MOS %.2f (%llu windows)\n", mark,
                  static_cast<unsigned long long>(phase), it->second.summary.mean(),
                  static_cast<unsigned long long>(it->second.summary.count()));
    } else {
      std::printf("  %s%2llu s: %llu events\n", mark,
                  static_cast<unsigned long long>(phase),
                  static_cast<unsigned long long>(it->second.summary.count()));
    }
  }
}

/// Share of events landing in the boundary window — phase 14 through phase
/// `lag` — vs the uniform expectation ((lag + 2) / 15): >1 = clustering at
/// the handover seam. `lag` extends the window for impairments that trail
/// the boundary mechanically (a rebuffer onset lags the stall by the buffer
/// depth; a spike or MOS dip is immediate, lag 1).
double boundary_ratio(const stats::KeyedSamples& by_phase, std::uint64_t lag) {
  std::uint64_t boundary = 0;
  std::uint64_t total = 0;
  for (const auto& [phase, group] : by_phase.groups()) {
    total += group.summary.count();
    if (phase <= lag || phase == 14) boundary += group.summary.count();
  }
  if (total == 0) return 0.0;
  return (static_cast<double>(boundary) / static_cast<double>(total)) /
         (static_cast<double>(lag + 2) / 15.0);
}

void run_abr(bench::Run& run, const fleet::Fleet::Config& fleet, int sessions,
             Duration duration, Duration storm_blip) {
  const bench::CommonArgs& args = run.args();
  measure::AbrCampaign::Config config;
  config.seed = args.seed;
  args.apply(config);
  config.sessions = sessions;
  if (duration > Duration::zero()) config.session.watch = duration;
  // Live-edge ladder: short segments and a shallow buffer — the
  // latency-sensitive end of ABR, where handover stalls can outrun the
  // buffer. (A deep VOD buffer simply absorbs 15 s-grid blips: also a
  // paper-family finding, but invisible on a phase plot.)
  config.session.segment = Duration::seconds(2);
  config.session.startup_buffer_s = 2.0;
  config.session.resume_buffer_s = 2.0;
  config.session.max_buffer_s = 2.0;
  // Scale the BBA thresholds to the live buffer (the VOD defaults would pin
  // the ladder to the bottom rung: reservoir 8 s > the whole buffer).
  config.session.ladder.reservoir_s = 0.5;
  config.session.ladder.cushion_s = 3.0;
  config.fleet = fleet;
  const Duration horizon =
      (config.session.watch * 2.0 + config.gap) * static_cast<double>(sessions) +
      Duration::seconds(30);

  std::printf("\n=== ABR video: %d sessions x %.0f s (live-edge: %.0f s segments, "
              "%.0f s buffer) ===\n",
              sessions, config.session.watch.to_seconds(),
              config.session.segment.to_seconds(), config.session.max_buffer_s);
  for (const Variant& variant : variants(args, horizon, storm_blip)) {
    measure::AbrCampaign::Config cfg = config;
    cfg.scenario = variant.scenario;
    const auto r = run.sweep_as_is<measure::AbrCampaign>(cfg);

    std::printf("\n--- %s ---\n", variant.label.c_str());
    stats::TextTable table{{"metric", "min", "p5", "p25", "median", "p75", "p95", "paper"}};
    table.add_row(bench::boxplot_row("startup delay s", r.startup_s, "~1-3"));
    table.add_row(bench::boxplot_row("rebuffer ratio", r.rebuffer_ratio, "<0.03 clear"));
    table.add_row(bench::boxplot_row("bitrate Mbps", r.mean_rung_mbps, "ladder-top"));
    table.add_row(bench::boxplot_row("segment tput Mbps", r.segment_mbps, "-"));
    std::printf("%s", table.str().c_str());
    std::printf("rebuffers: %llu | quality switches: %llu | segments: %llu\n",
                static_cast<unsigned long long>(r.rebuffer_events),
                static_cast<unsigned long long>(r.quality_switches),
                static_cast<unsigned long long>(r.segments));
    report_phases("rebuffer onsets", r.rebuffer_by_phase, /*mos=*/false);
    if (r.rebuffer_events > 0) {
      // Rebuffer onsets trail the boundary stall by up to buffer + blip
      // seconds (the stall begins at the boundary; the buffer takes that
      // long to drain), so the clustering window extends accordingly.
      const auto lag = static_cast<std::uint64_t>(
          config.session.max_buffer_s + storm_blip.to_seconds() + 0.999);
      std::printf("boundary clustering: %.1fx uniform within %llu s of the "
                  "boundary (>1 = stalls follow the handover seam)\n",
                  boundary_ratio(r.rebuffer_by_phase, lag),
                  static_cast<unsigned long long>(lag));
    }
  }
}

void run_vc(bench::Run& run, const fleet::Fleet::Config& fleet, int calls,
            Duration duration, Duration storm_blip) {
  const bench::CommonArgs& args = run.args();
  measure::VcCampaign::Config config;
  config.seed = args.seed;
  args.apply(config);
  config.calls = calls;
  if (duration > Duration::zero()) config.session.duration = duration;
  config.fleet = fleet;
  const Duration horizon =
      (config.session.duration + config.gap) * static_cast<double>(calls) +
      Duration::seconds(30);

  std::printf("\n=== videoconference: %d calls x %.0f s ===\n", calls,
              config.session.duration.to_seconds());
  for (const Variant& variant : variants(args, horizon, storm_blip)) {
    measure::VcCampaign::Config cfg = config;
    cfg.scenario = variant.scenario;
    const auto r = run.sweep_as_is<measure::VcCampaign>(cfg);

    std::printf("\n--- %s ---\n", variant.label.c_str());
    stats::TextTable table{{"metric", "min", "p5", "p25", "median", "p75", "p95", "paper"}};
    table.add_row(bench::boxplot_row("window MOS", r.mos, ">4 mostly"));
    table.add_row(bench::boxplot_row("window loss %", r.window_loss_pct, "0 mostly"));
    table.add_row(bench::boxplot_row("frame transit ms", r.transit_ms, "~30-60"));
    std::printf("%s", table.str().c_str());
    const double miss_pct = r.frames_sent > 0
                                ? 100.0 * static_cast<double>(r.frames_missed) /
                                      static_cast<double>(r.frames_sent)
                                : 0.0;
    std::printf("frames: %llu sent, %llu missed deadline (%.2f%%) | "
                "datagrams lost: %llu (never retransmitted)\n",
                static_cast<unsigned long long>(r.frames_sent),
                static_cast<unsigned long long>(r.frames_missed), miss_pct,
                static_cast<unsigned long long>(r.datagrams_lost));
    report_phases("window MOS", r.mos_by_phase, /*mos=*/true);
  }
}

void run_game(bench::Run& run, const fleet::Fleet::Config& fleet, int matches,
              Duration duration, Duration storm_blip) {
  const bench::CommonArgs& args = run.args();
  measure::GameCampaign::Config config;
  config.seed = args.seed;
  args.apply(config);
  // The stall correlation needs per-packet provenance regardless of the
  // export flags (cheap at game-tick rates).
  config.obs.provenance = true;
  config.matches = matches;
  if (duration > Duration::zero()) config.session.duration = duration;
  // Competitive bound: RTT above ~p99 of the clear-sky distribution is felt
  // as lag no matter how gradually it arrived. This is the rule the slot
  // penalty couples to (the median-relative rule cancels constant
  // within-slot offsets by construction).
  config.session.detector.abs_ms = 60.0;
  config.fleet = fleet;
  const Duration horizon =
      (config.session.duration + config.gap) * static_cast<double>(matches) +
      Duration::seconds(30);

  std::printf("\n=== game traffic: %d matches x %.0f s ===\n", matches,
              config.session.duration.to_seconds());
  std::vector<Variant> vars = variants(args, horizon, storm_blip);
  if (args.scenario == nullptr) {
    // In-motion run: the highway route's tunnels and urban canyon produce
    // genuinely unconnected slots, so stalled ticks resolve (late) with
    // multi-second handover_stall in their provenance — the strongest form
    // of the spike/stall correlation.
    auto motion = std::make_shared<scenario::Scenario>();
    motion->name = "in-motion";
    // Time-compress the route so the whole drive — canyon, tree lines, both
    // tunnels — fits inside this campaign's horizon.
    double speed = 1.0;
    if (const auto route = mobility::routes::lookup("highway")) {
      speed = std::max(1.0, route->trajectory.total_duration().to_seconds() /
                                horizon.to_seconds());
    }
    motion->move(TimePoint::epoch(), TimePoint::epoch() + horizon, "highway", speed);
    motion->validate();
    vars.push_back({"in motion (highway route)", std::move(motion)});
  }
  for (const Variant& variant : vars) {
    measure::GameCampaign::Config cfg = config;
    cfg.scenario = variant.scenario;
    const auto r = run.sweep_as_is<measure::GameCampaign>(cfg);

    std::printf("\n--- %s ---\n", variant.label.c_str());
    stats::TextTable table{{"metric", "min", "p5", "p25", "median", "p75", "p95", "paper"}};
    table.add_row(bench::boxplot_row("tick RTT ms", r.rtt_ms, "~40 median"));
    table.add_row(bench::boxplot_row("spike stall ms", r.spike_stall_ms, "-"));
    std::printf("%s", table.str().c_str());
    const double spike_pct = r.ticks_sent > 0
                                 ? 100.0 * static_cast<double>(r.spikes) /
                                       static_cast<double>(r.ticks_sent)
                                 : 0.0;
    std::printf("ticks: %llu sent, %llu lost | lag spikes: %llu (%.2f%% of ticks), "
                "%llu with handover stall in their provenance\n",
                static_cast<unsigned long long>(r.ticks_sent),
                static_cast<unsigned long long>(r.ticks_lost),
                static_cast<unsigned long long>(r.spikes), spike_pct,
                static_cast<unsigned long long>(r.spikes_with_stall));
    report_phases("lag spikes", r.spikes_by_phase, /*mos=*/false);
    if (r.spikes > 0) {
      std::printf("boundary clustering: %.1fx uniform\n",
                  boundary_ratio(r.spikes_by_phase, 1));
    }
    if (r.ticks_high_stall > 0 && r.ticks_low_stall > 0) {
      const double high = 100.0 * static_cast<double>(r.spikes_high_stall) /
                          static_cast<double>(r.ticks_high_stall);
      const double low = 100.0 * static_cast<double>(r.spikes_low_stall) /
                         static_cast<double>(r.ticks_low_stall);
      std::printf("stall correlation: spike rate %.2f%% in high-stall slots "
                  "(handover_stall >= %.0f ms, %llu ticks) vs %.2f%% in "
                  "low-stall slots (<= %.0f ms, %llu ticks)\n",
                  high, measure::GameCampaign::kStallHighMs,
                  static_cast<unsigned long long>(r.ticks_high_stall), low,
                  measure::GameCampaign::kStallLowMs,
                  static_cast<unsigned long long>(r.ticks_low_stall));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run{argc, argv};
  const Flags& flags = run.flags();
  const std::string app = flags.get("app", "all");
  const int sessions = flags.get_int_in("sessions", run.args().scaled(2), 1, bench::kMaxCount);
  const Duration duration = flags.get_duration("duration", Duration::zero());
  const Duration storm_blip = flags.get_duration("storm-blip", Duration::seconds(2));
  const fleet::Fleet::Config fleet = bench::parse_fleet(flags);
  if (app != "all" && app != "abr" && app != "vc" && app != "game") {
    flags.reject("app", "unknown app (known: abr vc game all)");
  }
  run.start("Figure 8 (extension)",
            "application QoE: ABR video, videoconferencing, game traffic");

  if (app == "all" || app == "abr") run_abr(run, fleet, sessions, duration, storm_blip);
  if (app == "all" || app == "vc") run_vc(run, fleet, sessions, duration, storm_blip);
  if (app == "all" || app == "game") run_game(run, fleet, sessions, duration, storm_blip);

  std::printf("\nShape to check: QoE impairments are not uniform in time. Under "
              "the handover storm they snap to the 15 s grid — rebuffer onsets "
              "trail the boundary by the buffer depth, MOS dips and lag spikes "
              "land at phases 14/0/1. In motion, tunnel segments drive "
              "loss-spike bursts off the handover grid, while the spike *rate* "
              "still tracks the per-slot handover_stall penalty (high- vs "
              "low-stall buckets). Clear sky is the control: rare, "
              "near-uniform jitter spikes.\n");
  return run.finish();
}
