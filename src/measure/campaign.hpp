// campaign.hpp — the paper's measurement campaigns as runnable experiments.
//
// Each sub-campaign reproduces one slice of Table 1 and feeds one or more
// figures/tables (the experiment index lives in DESIGN.md §3):
//
//   PingCampaign       -> Figure 1, Figure 2, Mood's-test paragraph
//   H3Campaign         -> Figure 3, Table 2, Figure 4a, Figure 5 (H3 bars)
//   MessageCampaign    -> §3.1 messages RTT, Table 2, Figure 4b
//   SpeedtestCampaign  -> Figure 5 (Ookla bars, Starlink & SatCom)
//   WebCampaign        -> Figure 6 (onLoad / SpeedIndex ECDFs)
//   MiddleboxAudit     -> §3.5 (traceroute, Tracebox, Wehe)
//
// Every Config is a fleet::RunEnv (seed, obs, scenario, fast_forward), and
// every run() builds its own Testbed from that env, so campaigns are
// independent and reproducible. Timeline compression: cadences are
// parameters; the paper's five months are replayed at a configurable pace.
//
// Session series (SessionSeries, session_series.hpp): H3, messages,
// Speedtest, web and the three QoE campaigns run N sessions one at a time;
// session i+1 starts one `gap` after session i *ends*. Each session has
// exactly one outcome, completed or abandoned, and the first report wins: a
// completion after the deadline adds no sample and launches nothing. Only H3
// (transfer_timeout) and web (the browser's visit_timeout) have deadlines.
// A session still open when the run ends counts as abandoned; with metrics
// on, campaign.sessions_{launched,completed,abandoned} count the outcomes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure/loss.hpp"
#include "measure/testbed.hpp"
#include "obs/breakdown.hpp"
#include "mbox/tracebox.hpp"
#include "mbox/traceroute.hpp"
#include "mbox/wehe.hpp"
#include "stats/quantiles.hpp"
#include "stats/timeseries.hpp"

namespace slp::measure {

/// Installs the paper's campaign epochs on a Starlink config:
///   * constellation densification on day 53 (the Feb-11 step of Figure 2);
///   * a loaded/reorganization period over days 125-139 (the late-April
///     RTT rise) with higher cell utilization;
///   * a QUIC download-capacity increase from day 126 (the paper's second
///     H3 session measured more downlink).
void apply_paper_epochs(leo::StarlinkAccess::Config& config);

// ===================================================================== pings

struct PingCampaign {
  struct Config : fleet::RunEnv {  // seed 1
    Duration duration = Duration::days(146);  ///< Dec 20 -> mid May
    Duration cadence = Duration::minutes(5);
    int pings_per_round = 3;
    bool epochs = true;
    /// Optional simulated-neighbour fleet (src/fleet/); size 0 keeps the
    /// synthetic cell load, size N > 1 puts real contention under Figure 2.
    fleet::Fleet::Config fleet;
  };

  struct AnchorResult {
    std::string name;
    bool european = false;
    bool local = false;
    stats::Samples rtt_ms;
  };

  struct Result {
    std::vector<AnchorResult> anchors;
    stats::TimeBinner eu_timeline{Duration::hours(6)};  ///< Figure 2
    /// Per-component EU RTT timelines (obs::Component-indexed, ms), filled
    /// only when Config::obs.provenance is on — the fig2b dominant-cause
    /// annotation reads the per-bin means side by side with eu_timeline.
    std::vector<stats::TimeBinner> eu_components;
    std::array<std::vector<double>, 24> eu_by_hour;     ///< Mood's test input
    std::uint64_t pings_sent = 0;
    std::uint64_t pings_lost = 0;
    obs::Snapshot obs;  ///< metrics/trace/series of this cell (or merged)
  };

  static Result run(const Config& config);
};

// ===================================================================== H3

struct H3Campaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 2; }
    int transfers = 12;
    bool download = true;
    std::uint64_t bytes = 100ull * 1000 * 1000;
    Duration gap = Duration::seconds(20);
    bool pacing = false;     ///< quiche default; true for the ablation
    bool epochs = true;      ///< second-session capacity applies
    Duration transfer_timeout = Duration::minutes(5);
    /// Optional simulated-neighbour fleet (src/fleet/); size 0 keeps the
    /// synthetic cell load, size N > 1 puts real contention under Figure 3.
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples rtt_ms;            ///< RTT of every acked packet (Fig. 3)
    stats::Samples goodput_mbps;      ///< per transfer (Fig. 5)
    LossAnalyzer::Report loss;        ///< Table 2 / Fig. 4a / §3.2 durations
    int transfers_completed = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ================================================================= messages

struct MessageCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 3; }
    int sessions = 6;
    bool upload = true;                    ///< client -> server
    Duration session_duration = Duration::minutes(2);
    Duration gap = Duration::seconds(10);
    bool pacing = false;
    /// Optional simulated-neighbour fleet (src/fleet/); size 0 keeps the
    /// synthetic cell load, size N > 1 puts real contention under Figure 4b.
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples rtt_ms;        ///< per acked packet, §3.1 messages RTT
    stats::Samples latency_ms;    ///< per message, queue -> delivered
    LossAnalyzer::Report loss;    ///< Table 2 / Fig. 4b
    int messages_sent = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ================================================================ speedtest

struct SpeedtestCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 4; }
    AccessKind access = AccessKind::kStarlink;
    int tests = 24;
    bool download = true;
    int connections = 8;
    Duration test_duration = Duration::seconds(12);
    Duration gap = Duration::minutes(2);
    bool satcom_pep = true;  ///< PEP ablation switch (SatCom access only)
    /// Optional simulated-neighbour fleet (Starlink access only).
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples mbps;  ///< one sample per test (Fig. 5)
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ====================================================================== web

struct WebCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 5; }
    AccessKind access = AccessKind::kStarlink;
    int catalog_sites = 120;
    int visits = 60;              ///< total page loads
    Duration gap = Duration::seconds(4);
    Duration visit_timeout = Duration::seconds(90);
    bool satcom_pep = true;  ///< PEP ablation switch (SatCom access only)
    /// Name resolution across the access link (one lookup per origin per
    /// cold cache) — part of every real onLoad.
    bool dns = true;
    /// Optional simulated-neighbour fleet (Starlink access only); puts real
    /// contention under the Figure 6 page loads.
    fleet::Fleet::Config fleet;
  };

  struct Result {
    stats::Samples onload_s;       ///< Figure 6a
    stats::Samples speedindex_s;   ///< Figure 6b
    stats::Samples setup_ms;       ///< per-connection TCP+TLS setup
    double mean_connections = 0.0;
    int visits_completed = 0;
    int visits_timed_out = 0;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ================================================================ road trip

/// The mobility extension (bench/fig7_road_trip): 1 Hz latency probes to the
/// nearest anchor while the terminal drives a mobility::Route. Probes are
/// binned by the vehicle's instantaneous speed, consecutive losses fold into
/// outage durations, and the provenance sums expose how much of the moving
/// RTT is handover stall.
struct RoadTripCampaign {
  struct Config : fleet::RunEnv {
    Config() { seed = 7; }
    std::string route = "highway";  ///< mobility::routes::lookup name
    double speed_scale = 1.0;       ///< multiplies the route's leg speeds
    Duration cadence = Duration::seconds(1);
    /// Zero = drive the whole route (scaled) plus a 30 s settled tail.
    Duration duration = Duration::zero();
    bool obstructions = true;  ///< false strips the route's masks (ablation)
    /// Optional simulated-neighbour fleet: makes cell migrations land in
    /// arbiters with real background members.
    fleet::Fleet::Config fleet;
  };

  struct Result {
    /// RTT (ms) grouped by speed bin: key = floor(speed_kmh / 20).
    stats::KeyedSamples rtt_by_speed;
    /// Loss indicator (1 = lost) per probe, same keys: mean() = loss rate.
    stats::KeyedSamples loss_by_speed;
    stats::Samples outage_s;  ///< consecutive-loss run lengths, seconds
    /// Provenance component sums over all answered probes (ns); all zero
    /// unless Config::obs.provenance is on.
    std::array<std::int64_t, obs::kTagComponents> comp_ns{};
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_lost = 0;
    std::uint64_t reroutes = 0;         ///< mobility.* counter mirrors
    std::uint64_t cell_migrations = 0;
    std::uint64_t tunnels = 0;
    double route_km = 0.0;  ///< same route in every cell; merge keeps max
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

// ============================================================ sweep support
//
// Per-cell result folds for runner::run_merged (runner/sweep.hpp): each
// merge() appends `from`'s distributions to `into` and sums its counters.
// Folds are applied in cell-id order by the sweep, which keeps multi-seed
// campaigns bit-identical across --jobs settings. Requires both results to
// come from the same campaign shape (e.g. the same anchor set for pings).

void merge(PingCampaign::Result& into, const PingCampaign::Result& from);
void merge(H3Campaign::Result& into, const H3Campaign::Result& from);
void merge(MessageCampaign::Result& into, const MessageCampaign::Result& from);
void merge(SpeedtestCampaign::Result& into, const SpeedtestCampaign::Result& from);
void merge(WebCampaign::Result& into, const WebCampaign::Result& from);
void merge(RoadTripCampaign::Result& into, const RoadTripCampaign::Result& from);

// =============================================================== middleboxes

struct MiddleboxAudit {
  struct Config : fleet::RunEnv {
    Config() { seed = 6; }
    AccessKind access = AccessKind::kStarlink;
    int wehe_repetitions = 10;  ///< the paper ran the suite ten times
  };

  struct Result {
    std::vector<mbox::Traceroute::Hop> traceroute;
    mbox::Tracebox::Report tracebox;
    mbox::WeheClient::Report wehe;
    obs::Snapshot obs;
  };

  static Result run(const Config& config);
};

}  // namespace slp::measure
