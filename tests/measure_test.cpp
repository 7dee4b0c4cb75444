#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "fast_forward_metrics.hpp"
#include "measure/campaign.hpp"
#include "fleet/campaign.hpp"
#include "measure/loss.hpp"
#include "measure/multivantage.hpp"
#include "measure/qoe_campaign.hpp"
#include "measure/testbed.hpp"
#include "obs/trace.hpp"
#include "runner/sweep.hpp"

namespace slp::measure {
namespace {

using namespace slp::literals;

// ------------------------------------------------------------ LossAnalyzer

TEST(LossAnalyzer, NoGapsNoLoss) {
  LossAnalyzer analyzer;
  for (std::uint64_t pn = 0; pn < 100; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::micros(50) * static_cast<double>(pn));
  }
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_received, 100u);
  EXPECT_EQ(report.packets_lost, 0u);
  EXPECT_EQ(report.loss_events, 0u);
  EXPECT_DOUBLE_EQ(report.loss_ratio, 0.0);
}

TEST(LossAnalyzer, SingleGapCountsBurstAndDuration) {
  LossAnalyzer analyzer;
  // pns 0..9, then 13..20: missing 10,11,12 -> one event, burst 3.
  for (std::uint64_t pn = 0; pn <= 9; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  for (std::uint64_t pn = 13; pn <= 20; ++pn) {
    analyzer.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_lost, 3u);
  EXPECT_EQ(report.loss_events, 1u);
  EXPECT_EQ(report.burst_lengths.count(3), 1u);
  ASSERT_EQ(report.event_durations_ms.size(), 1u);
  // Gap duration: arrival(13) - arrival(9) = 4ms.
  EXPECT_NEAR(report.event_durations_ms.values()[0], 4.0, 1e-9);
  EXPECT_NEAR(report.loss_ratio, 3.0 / 21.0, 1e-12);
}

TEST(LossAnalyzer, LongGapCountsAsOutage) {
  LossAnalyzer analyzer;
  analyzer.note_received(0, TimePoint::epoch());
  analyzer.note_received(200, TimePoint::epoch() + Duration::seconds(2));
  const auto report = analyzer.analyze();
  EXPECT_EQ(report.packets_lost, 199u);
  EXPECT_EQ(report.outage_events, 1u);
}

TEST(LossAnalyzer, CombineAggregatesAcrossTransfers) {
  LossAnalyzer a;
  a.note_received(0, TimePoint::epoch());
  a.note_received(2, TimePoint::epoch() + 1_ms);
  LossAnalyzer b;
  b.note_received(0, TimePoint::epoch());
  b.note_received(1, TimePoint::epoch() + 1_ms);
  LossAnalyzer::Report combined = a.analyze();
  merge(combined, b.analyze());
  EXPECT_EQ(combined.packets_received, 4u);
  EXPECT_EQ(combined.packets_lost, 1u);
  EXPECT_EQ(combined.loss_events, 1u);
  EXPECT_NEAR(combined.loss_ratio, 0.2, 1e-12);
}

TEST(LossAnalyzer, SeparateConnectionsDoNotCreateFalseGaps) {
  // Two attached connections each starting at pn 0 must not look like a
  // giant gap between them.
  LossAnalyzer analyzer;
  // Simulate two traces via the manual API on separate analyzers and merge.
  LossAnalyzer t1;
  LossAnalyzer t2;
  for (std::uint64_t pn = 0; pn < 50; ++pn) {
    t1.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
    t2.note_received(pn, TimePoint::epoch() + Duration::millis(pn));
  }
  LossAnalyzer::Report combined = t1.analyze();
  merge(combined, t2.analyze());
  EXPECT_EQ(combined.packets_lost, 0u);
  (void)analyzer;
}

// ------------------------------------------------------------ Testbed

TEST(Testbed, BuildsElevenAnchorsAndAllClients) {
  Testbed bed{};
  EXPECT_EQ(bed.anchors().size(), 11u);
  int european = 0;
  int local = 0;
  for (const auto& anchor : bed.anchors()) {
    if (anchor.european) ++european;
    if (anchor.local) ++local;
  }
  EXPECT_EQ(european, 8);  // 4 BE + 2 AMS + 2 NUE
  EXPECT_EQ(local, 4);
  EXPECT_EQ(bed.client(AccessKind::kStarlink).name(), "pc-starlink");
  EXPECT_EQ(bed.client(AccessKind::kSatCom).name(), "pc-satcom");
  EXPECT_EQ(bed.client(AccessKind::kWired).name(), "pc-wired");
}

TEST(Testbed, InjectsEveryShippedScenario) {
  // Every examples/scenarios/*.scn, injected into an idle Testbed run to 1 s
  // past its last window: each event's start hook fires, and a `move` event
  // drives the mobile terminal. A new scenario file needs no test edit.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator{SLP_SOURCE_DIR "/examples/scenarios"}) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::filesystem::path& file : files) {
    const auto scn =
        std::make_shared<const scenario::Scenario>(scenario::Scenario::load(file.string()));
    ASSERT_FALSE(scn->empty()) << file;
    TimePoint last_end = TimePoint::epoch();
    bool moves = false;
    for (const scenario::Event& e : scn->events) {
      last_end = std::max(last_end, e.end);
      moves = moves || e.kind == scenario::EventKind::kMove;
    }
    TestbedConfig config;
    config.obs.metrics = true;
    config.scenario = scn;
    Testbed bed{config};
    bed.run_for(last_end - bed.sim().now() + Duration::seconds(1));
    const obs::Snapshot snap = bed.sim().take_obs();
    const auto applied = snap.counters.find("scenario.events_applied");
    ASSERT_NE(applied, snap.counters.end()) << file;
    EXPECT_EQ(applied->second, scn->events.size()) << file;
    if (moves) {
      const auto epochs = snap.counters.find("mobility.epochs");
      ASSERT_NE(epochs, snap.counters.end()) << file;
      EXPECT_GT(epochs->second, 0u) << file;
    }
  }
}

TEST(Testbed, WiredClientReachesCampusServerFast) {
  Testbed bed{};
  Duration rtt = Duration::zero();
  sim::Host& client = bed.client(AccessKind::kWired);
  client.bind_echo_reply(5, [&](const sim::Packet&) { rtt = bed.sim().now() - TimePoint::epoch(); });
  sim::Packet ping;
  ping.dst = bed.campus_server().addr();
  ping.proto = sim::Protocol::kIcmp;
  ping.size_bytes = 64;
  ping.icmp = sim::IcmpHeader{sim::IcmpType::kEchoRequest, 5, 0, nullptr};
  client.send(std::move(ping));
  bed.sim().run();
  EXPECT_GT(rtt.to_millis(), 0.0);
  EXPECT_LT(rtt.to_millis(), 3.0);  // same campus
}

TEST(Testbed, AllThreeClientsReachEveryAnchor) {
  Testbed bed{};
  int replies = 0;
  std::uint16_t id = 100;
  for (const AccessKind kind :
       {AccessKind::kStarlink, AccessKind::kSatCom, AccessKind::kWired}) {
    sim::Host& client = bed.client(kind);
    for (const auto& anchor : bed.anchors()) {
      ++id;
      client.bind_echo_reply(id, [&replies](const sim::Packet&) { ++replies; });
      sim::Packet ping;
      ping.dst = anchor.host->addr();
      ping.proto = sim::Protocol::kIcmp;
      ping.size_bytes = 64;
      ping.icmp = sim::IcmpHeader{sim::IcmpType::kEchoRequest, id, 0, nullptr};
      client.send(std::move(ping));
    }
  }
  bed.sim().run();
  EXPECT_EQ(replies, 33);
}

// ------------------------------------------------------------ Campaigns (smoke scale)

TEST(PingCampaignTest, ShortCampaignProducesStarlinkLikeRtts) {
  PingCampaign::Config config;
  config.duration = Duration::hours(2);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  const auto result = PingCampaign::run(config);
  ASSERT_EQ(result.anchors.size(), 11u);
  EXPECT_GT(result.pings_sent, 700u);
  // Local anchors: median in the tens of ms; far anchors: much higher.
  const auto& brussels = result.anchors[0];
  ASSERT_GT(brussels.rtt_ms.size(), 20u);
  EXPECT_GT(brussels.rtt_ms.median(), 25.0);
  EXPECT_LT(brussels.rtt_ms.median(), 70.0);
  const auto& singapore = result.anchors[10];
  EXPECT_GT(singapore.rtt_ms.median(), 150.0);
  // Loss is rare but the campaign survives it.
  EXPECT_LT(static_cast<double>(result.pings_lost) / result.pings_sent, 0.05);
}

TEST(H3CampaignTest, LateCompletionAfterTheDeadlineIsIgnored) {
  // A 2 MB transfer over Starlink outlives a 200 ms transfer_timeout. The
  // deadline abandons it and launches its one successor; its own late
  // completion must neither count nor launch a second successor.
  H3Campaign::Config config;
  config.transfers = 3;
  config.bytes = 2'000'000;
  config.transfer_timeout = Duration::millis(200);
  config.epochs = false;
  config.obs.metrics = true;
  const auto result = H3Campaign::run(config);
  EXPECT_LE(result.transfers_completed, 3);
  EXPECT_EQ(result.goodput_mbps.size(), static_cast<std::size_t>(result.transfers_completed));
  const auto& counters = result.obs.counters;
  ASSERT_TRUE(counters.contains("campaign.sessions_launched"));
  EXPECT_EQ(counters.at("campaign.sessions_launched"), 3u);
  EXPECT_EQ(counters.at("campaign.sessions_completed") + counters.at("campaign.sessions_abandoned"),
            3u);
}

TEST(MessageCampaignTest, ShortUploadSessionCollectsEverything) {
  MessageCampaign::Config config;
  config.sessions = 1;
  config.session_duration = Duration::seconds(30);
  const auto result = MessageCampaign::run(config);
  EXPECT_NEAR(result.messages_sent, 750, 10);
  EXPECT_GT(result.latency_ms.size(), 700u);
  EXPECT_GT(result.rtt_ms.size(), 1000u);
  // Message latencies sit near the path RTT's one-way plus queueing.
  EXPECT_GT(result.latency_ms.median(), 15.0);
  EXPECT_LT(result.latency_ms.median(), 120.0);
}

TEST(SpeedtestCampaignTest, WiredTestsNearGigabit) {
  SpeedtestCampaign::Config config;
  config.access = AccessKind::kWired;
  config.tests = 2;
  config.test_duration = Duration::seconds(6);
  config.gap = Duration::seconds(5);
  const auto result = SpeedtestCampaign::run(config);
  ASSERT_EQ(result.mbps.size(), 2u);
  EXPECT_GT(result.mbps.median(), 500.0);
  EXPECT_LE(result.mbps.median(), 1000.0);
}

TEST(WebCampaignTest, WiredVisitsAreFast) {
  WebCampaign::Config config;
  config.access = AccessKind::kWired;
  config.visits = 4;
  config.catalog_sites = 10;
  const auto result = WebCampaign::run(config);
  EXPECT_EQ(result.visits_completed, 4);
  EXPECT_EQ(result.visits_timed_out, 0);
  EXPECT_GT(result.onload_s.median(), 0.2);
  EXPECT_LT(result.onload_s.median(), 4.0);
  EXPECT_LE(result.speedindex_s.median(), result.onload_s.median() + 1e-9);
  EXPECT_GT(result.mean_connections, 3.0);
}

TEST(MiddleboxAuditTest, StarlinkShowsNatsNoPepNoTd) {
  MiddleboxAudit::Config config;
  config.wehe_repetitions = 2;
  const auto result = MiddleboxAudit::run(config);
  ASSERT_GE(result.traceroute.size(), 3u);
  EXPECT_EQ(result.traceroute[0].reporter, sim::kCpeNatAddr);
  EXPECT_EQ(result.traceroute[1].reporter, sim::kCgnNatAddr);
  EXPECT_TRUE(result.tracebox.nat_detected);
  EXPECT_FALSE(result.tracebox.pep_detected);
  EXPECT_FALSE(result.wehe.differentiation_detected);
}

// ---------------------------------------------------------- AccessKind names

TEST(AccessKind, ParseInvertsToStringAndTakesAliases) {
  for (const AccessKind kind : {AccessKind::kStarlink, AccessKind::kSatCom, AccessKind::kWired}) {
    EXPECT_EQ(parse_access(to_string(kind)), kind);
  }
  EXPECT_EQ(parse_access("leo"), AccessKind::kStarlink);
  EXPECT_EQ(parse_access("geo"), AccessKind::kSatCom);
  EXPECT_EQ(parse_access(""), std::nullopt);
  EXPECT_EQ(parse_access("sat"), std::nullopt);
}

// ---------------------------------------------------- RunEnv -> cell mapping
//
// Every campaign Config is a fleet::RunEnv; each run() hands that env to its
// cell: a Testbed, or a fleet::FleetCampaign::Cell for the fleet-only
// campaigns. One row per campaign at its smallest runnable size: with
// metrics on, a scenario and a 3-terminal fleet in the env/Config, the
// cell's snapshot must show the scenario's injector, the simulator's event
// counter and (Starlink access only) the fleet. A run() that dropped a field
// would lose the matching counters. The session-series campaigns run one
// session, which must be launched and completed exactly once.
//
// The same rows, swept over two seed cells with every export on, must give
// byte-identical exports for any --jobs and either --fast-forward setting.

/// How a row runs: seed cells, pool width, fast paths, and whether the
/// trace and provenance exports are on besides metrics.
struct RunShape {
  int seeds = 1;
  int jobs = 1;
  bool fast_forward = false;
  bool all_exports = false;
};

struct EnvCase {
  const char* name;
  bool expect_fleet;  ///< Config::fleet applies (Starlink access)
  bool one_session;   ///< a one-session measure::SessionSeries run
  obs::Snapshot (*run)(const RunShape&);
};

std::shared_ptr<const scenario::Scenario> plane_failure() {
  static const auto scn = std::make_shared<const scenario::Scenario>(
      scenario::Scenario::load(SLP_SOURCE_DIR "/examples/scenarios/plane_failure.scn"));
  return scn;
}

/// The cells' snapshots folded in cell order, as bench::Run folds them.
template <typename Campaign>
obs::Snapshot run_with_env(typename Campaign::Config config, const RunShape& shape) {
  config.obs.metrics = true;
  if (shape.all_exports) {
    config.obs.trace = true;
    config.obs.provenance = true;
    config.obs.sample_interval = Duration::minutes(30);
  }
  config.scenario = plane_failure();
  config.fast_forward = shape.fast_forward;
  if constexpr (requires { config.fleet; }) {
    config.fleet.size = 3;
    // The sim runs on to the scenario's day-45 end: coarse epochs keep that
    // cheap (the default 2 s epoch would tick ~2M times).
    config.fleet.epoch = Duration::hours(1);
  }
  runner::Pool pool{shape.jobs};
  obs::Snapshot snap;
  for (const auto& cell : runner::run_cells<Campaign>(pool, shape.seeds, config)) {
    obs::merge(snap, cell.obs);
  }
  return snap;
}

const EnvCase kEnvCases[] = {
    {"Ping", true, false,
     [](const RunShape& shape) {
       PingCampaign::Config c;
       c.duration = c.cadence;
       c.pings_per_round = 1;
       c.epochs = false;
       return run_with_env<PingCampaign>(c, shape);
     }},
    {"H3", true, true,
     [](const RunShape& shape) {
       H3Campaign::Config c;
       c.transfers = 1;
       c.bytes = 200'000;
       c.epochs = false;
       return run_with_env<H3Campaign>(c, shape);
     }},
    {"Message", true, true,
     [](const RunShape& shape) {
       MessageCampaign::Config c;
       c.sessions = 1;
       c.session_duration = Duration::seconds(2);
       return run_with_env<MessageCampaign>(c, shape);
     }},
    {"SpeedtestStarlink", true, true,
     [](const RunShape& shape) {
       SpeedtestCampaign::Config c;
       c.tests = 1;
       c.connections = 1;
       c.test_duration = Duration::seconds(1);
       return run_with_env<SpeedtestCampaign>(c, shape);
     }},
    {"SpeedtestSatCom", false, true,
     [](const RunShape& shape) {
       SpeedtestCampaign::Config c;
       c.access = AccessKind::kSatCom;
       c.tests = 1;
       c.connections = 1;
       c.test_duration = Duration::seconds(1);
       return run_with_env<SpeedtestCampaign>(c, shape);
     }},
    {"WebStarlink", true, true,
     [](const RunShape& shape) {
       WebCampaign::Config c;
       c.visits = 1;
       c.catalog_sites = 1;
       return run_with_env<WebCampaign>(c, shape);
     }},
    {"WebSatCom", false, true,
     [](const RunShape& shape) {
       WebCampaign::Config c;
       c.access = AccessKind::kSatCom;
       c.visits = 1;
       c.catalog_sites = 1;
       return run_with_env<WebCampaign>(c, shape);
     }},
    {"RoadTrip", true, false,
     [](const RunShape& shape) {
       RoadTripCampaign::Config c;
       c.duration = Duration::seconds(5);
       return run_with_env<RoadTripCampaign>(c, shape);
     }},
    {"MiddleboxAudit", false, false,  // no fleet field
     [](const RunShape& shape) {
       MiddleboxAudit::Config c;
       c.wehe_repetitions = 1;
       return run_with_env<MiddleboxAudit>(c, shape);
     }},
    {"Abr", true, true,
     [](const RunShape& shape) {
       AbrCampaign::Config c;
       c.sessions = 1;
       c.session.watch = Duration::seconds(8);
       return run_with_env<AbrCampaign>(c, shape);
     }},
    {"Vc", true, true,
     [](const RunShape& shape) {
       VcCampaign::Config c;
       c.calls = 1;
       c.session.duration = Duration::seconds(5);
       return run_with_env<VcCampaign>(c, shape);
     }},
    {"Game", true, true,
     [](const RunShape& shape) {
       GameCampaign::Config c;
       c.matches = 1;
       c.session.duration = Duration::seconds(5);
       return run_with_env<GameCampaign>(c, shape);
     }},
    // Fleet-only cells run for a fixed window: plane_failure opens on day 30.
    {"FleetCampaign", true, false,
     [](const RunShape& shape) {
       fleet::FleetCampaign::Config c;
       c.duration = Duration::days(31);
       return run_with_env<fleet::FleetCampaign>(c, shape);
     }},
    {"MultiVantage", true, false,
     [](const RunShape& shape) {
       MultiVantageCampaign::Config c;
       c.duration = Duration::days(31);
       c.cadence = Duration::days(1);
       return run_with_env<MultiVantageCampaign>(c, shape);
     }},
};

void PrintTo(const EnvCase& c, std::ostream* os) { *os << c.name; }

class RunEnvMapping : public ::testing::TestWithParam<EnvCase> {};

TEST_P(RunEnvMapping, EnvAndFleetReachTheCell) {
  const EnvCase& c = GetParam();
  const obs::Snapshot snap = c.run({});
  EXPECT_EQ(snap.cells, 1u);
  const auto applied = snap.counters.find("scenario.events_applied");
  ASSERT_NE(applied, snap.counters.end());
  EXPECT_EQ(applied->second, 1u);  // plane_failure's one window opened
  EXPECT_EQ(snap.counters.count("sim.events_processed"), 1u);
  const auto fleet_counter = snap.counters.lower_bound("fleet.");
  const bool has_fleet = fleet_counter != snap.counters.end() &&
                         fleet_counter->first.starts_with("fleet.");
  EXPECT_EQ(has_fleet, c.expect_fleet);
  EXPECT_EQ(snap.counters.contains("campaign.sessions_launched"), c.one_session);
  if (c.one_session) {
    EXPECT_EQ(snap.counters.at("campaign.sessions_launched"), 1u);
    EXPECT_EQ(snap.counters.at("campaign.sessions_completed"), 1u);
  }
}

TEST_P(RunEnvMapping, ExportsAreJobsAndFastForwardInvariant) {
  const EnvCase& c = GetParam();
  const auto exports = [&c](int jobs, bool fast_forward) {
    const obs::Snapshot snap = c.run({.seeds = 2,
                                      .jobs = jobs,
                                      .fast_forward = fast_forward,
                                      .all_exports = true});
    EXPECT_EQ(snap.cells, 2u);
    return std::vector<std::string>{strip_event_count(obs::metrics_json(snap)),
                                    obs::trace_jsonl(snap.events), obs::breakdown_json(snap),
                                    obs::flight_json(snap)};
  };
  const std::vector<std::string> reference = exports(1, true);
  const char* const names[] = {"metrics", "trace", "breakdown", "flight"};
  for (const int jobs : {1, 2}) {
    for (const bool fast_forward : {true, false}) {
      if (jobs == 1 && fast_forward) continue;  // the reference itself
      const std::vector<std::string> run = exports(jobs, fast_forward);
      for (std::size_t i = 0; i < run.size(); ++i) {
        EXPECT_TRUE(run[i] == reference[i])
            << names[i] << " export differs at jobs=" << jobs
            << " fast_forward=" << fast_forward;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CampaignCells, RunEnvMapping, ::testing::ValuesIn(kEnvCases),
                         [](const ::testing::TestParamInfo<EnvCase>& info) {
                           return std::string{info.param.name};
                         });

}  // namespace
}  // namespace slp::measure
