#include <gtest/gtest.h>

#include "measure/campaign.hpp"
#include "measure/loss.hpp"
#include "measure/qoe_campaign.hpp"
#include "measure/testbed.hpp"

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
  const auto combined = LossAnalyzer::combine({a.analyze(), b.analyze()});
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
  const auto combined = LossAnalyzer::combine({t1.analyze(), t2.analyze()});
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

// ------------------------------------------------- RunEnv -> Testbed mapping
//
// Every campaign Config is a fleet::RunEnv; each run() hands that env to its
// Testbed. One row per Testbed campaign at its smallest runnable size: with
// metrics on, a scenario and a 3-terminal fleet in the env/Config, the
// cell's snapshot must show the scenario's injector and (Starlink access only) the
// fleet. A run() that dropped a field would lose the matching counters.

struct EnvCase {
  const char* name;
  bool expect_fleet;  ///< Config::fleet applies (Starlink access)
  obs::Snapshot (*run)();
};

std::shared_ptr<const scenario::Scenario> plane_failure() {
  static const auto scn = std::make_shared<const scenario::Scenario>(
      scenario::Scenario::load(SLP_SOURCE_DIR "/examples/scenarios/plane_failure.scn"));
  return scn;
}

template <typename Campaign>
obs::Snapshot run_with_env(typename Campaign::Config config) {
  config.obs.metrics = true;
  config.scenario = plane_failure();
  config.fast_forward = false;
  if constexpr (requires { config.fleet; }) {
    config.fleet.size = 3;
    // The sim runs on to the scenario's day-45 end: coarse epochs keep that
    // cheap (the default 2 s epoch would tick ~2M times).
    config.fleet.epoch = Duration::hours(1);
  }
  return Campaign::run(config).obs;
}

const EnvCase kEnvCases[] = {
    {"Ping", true,
     [] {
       PingCampaign::Config c;
       c.duration = c.cadence;
       c.pings_per_round = 1;
       c.epochs = false;
       return run_with_env<PingCampaign>(c);
     }},
    {"H3", true,
     [] {
       H3Campaign::Config c;
       c.transfers = 1;
       c.bytes = 200'000;
       c.epochs = false;
       return run_with_env<H3Campaign>(c);
     }},
    {"Message", true,
     [] {
       MessageCampaign::Config c;
       c.sessions = 1;
       c.session_duration = Duration::seconds(2);
       return run_with_env<MessageCampaign>(c);
     }},
    {"SpeedtestStarlink", true,
     [] {
       SpeedtestCampaign::Config c;
       c.tests = 1;
       c.connections = 1;
       c.test_duration = Duration::seconds(1);
       return run_with_env<SpeedtestCampaign>(c);
     }},
    {"SpeedtestSatCom", false,
     [] {
       SpeedtestCampaign::Config c;
       c.access = AccessKind::kSatCom;
       c.tests = 1;
       c.connections = 1;
       c.test_duration = Duration::seconds(1);
       return run_with_env<SpeedtestCampaign>(c);
     }},
    {"WebStarlink", true,
     [] {
       WebCampaign::Config c;
       c.visits = 1;
       c.catalog_sites = 1;
       return run_with_env<WebCampaign>(c);
     }},
    {"WebSatCom", false,
     [] {
       WebCampaign::Config c;
       c.access = AccessKind::kSatCom;
       c.visits = 1;
       c.catalog_sites = 1;
       return run_with_env<WebCampaign>(c);
     }},
    {"RoadTrip", true,
     [] {
       RoadTripCampaign::Config c;
       c.duration = Duration::seconds(5);
       return run_with_env<RoadTripCampaign>(c);
     }},
    {"MiddleboxAudit", false,  // no fleet field
     [] {
       MiddleboxAudit::Config c;
       c.wehe_repetitions = 1;
       return run_with_env<MiddleboxAudit>(c);
     }},
    {"Abr", true,
     [] {
       AbrCampaign::Config c;
       c.sessions = 1;
       c.session.watch = Duration::seconds(8);
       return run_with_env<AbrCampaign>(c);
     }},
    {"Vc", true,
     [] {
       VcCampaign::Config c;
       c.calls = 1;
       c.session.duration = Duration::seconds(5);
       return run_with_env<VcCampaign>(c);
     }},
    {"Game", true,
     [] {
       GameCampaign::Config c;
       c.matches = 1;
       c.session.duration = Duration::seconds(5);
       return run_with_env<GameCampaign>(c);
     }},
};

void PrintTo(const EnvCase& c, std::ostream* os) { *os << c.name; }

class RunEnvMapping : public ::testing::TestWithParam<EnvCase> {};

TEST_P(RunEnvMapping, EnvAndFleetReachTheTestbed) {
  const EnvCase& c = GetParam();
  const obs::Snapshot snap = c.run();
  EXPECT_EQ(snap.cells, 1u);
  const auto applied = snap.counters.find("scenario.events_applied");
  ASSERT_NE(applied, snap.counters.end());
  EXPECT_EQ(applied->second, 1u);  // plane_failure's one window opened
  const auto fleet_counter = snap.counters.lower_bound("fleet.");
  const bool has_fleet = fleet_counter != snap.counters.end() &&
                         fleet_counter->first.starts_with("fleet.");
  EXPECT_EQ(has_fleet, c.expect_fleet);
}

INSTANTIATE_TEST_SUITE_P(TestbedCampaigns, RunEnvMapping, ::testing::ValuesIn(kEnvCases),
                         [](const ::testing::TestParamInfo<EnvCase>& info) {
                           return std::string{info.param.name};
                         });

}  // namespace
}  // namespace slp::measure
