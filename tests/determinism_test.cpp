// determinism_test.cpp — the reproducibility guarantees the README promises:
// identical seeds give bit-identical campaigns; different seeds differ.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "fleet/campaign.hpp"
#include "measure/campaign.hpp"
#include "measure/multivantage.hpp"
#include "measure/qoe_campaign.hpp"
#include "measure/testbed.hpp"
#include "obs/recorder.hpp"
#include "result_digest.hpp"
#include "runner/sweep.hpp"

namespace slp::measure {
namespace {

using namespace slp::literals;

TEST(Determinism, PingCampaignIsBitIdenticalPerSeed) {
  PingCampaign::Config config;
  config.duration = Duration::minutes(45);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  config.seed = 424242;

  const auto a = PingCampaign::run(config);
  const auto b = PingCampaign::run(config);
  ASSERT_EQ(a.anchors.size(), b.anchors.size());
  EXPECT_EQ(a.pings_sent, b.pings_sent);
  EXPECT_EQ(a.pings_lost, b.pings_lost);
  for (std::size_t i = 0; i < a.anchors.size(); ++i) {
    ASSERT_EQ(a.anchors[i].rtt_ms.size(), b.anchors[i].rtt_ms.size());
    for (std::size_t k = 0; k < a.anchors[i].rtt_ms.size(); ++k) {
      EXPECT_DOUBLE_EQ(a.anchors[i].rtt_ms.values()[k], b.anchors[i].rtt_ms.values()[k])
          << "anchor " << i << " sample " << k;
    }
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  PingCampaign::Config config;
  config.duration = Duration::minutes(30);
  config.cadence = Duration::minutes(5);
  config.epochs = false;

  config.seed = 1;
  const auto a = PingCampaign::run(config);
  config.seed = 2;
  const auto b = PingCampaign::run(config);
  ASSERT_FALSE(a.anchors.empty());
  ASSERT_FALSE(a.anchors[0].rtt_ms.empty());
  ASSERT_FALSE(b.anchors[0].rtt_ms.empty());
  // At least one sample must differ (jitter streams are seed-derived).
  bool any_diff = false;
  const std::size_t n = std::min(a.anchors[0].rtt_ms.size(), b.anchors[0].rtt_ms.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (a.anchors[0].rtt_ms.values()[k] != b.anchors[0].rtt_ms.values()[k]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Determinism, SpeedtestCampaignIsBitIdenticalPerSeed) {
  SpeedtestCampaign::Config config;
  config.access = AccessKind::kStarlink;
  config.tests = 2;
  config.test_duration = Duration::seconds(6);
  config.seed = 777;
  const auto a = SpeedtestCampaign::run(config);
  const auto b = SpeedtestCampaign::run(config);
  ASSERT_FALSE(a.mbps.empty());
  // Bit-identity, not approximate equality: the replay guarantee covers
  // throughput probes exactly like the ping campaigns.
  EXPECT_EQ(a.mbps.values(), b.mbps.values());
}

TEST(Determinism, SpeedtestCampaignIsBitIdenticalOverSatCom) {
  // The SatCom path adds the GEO access and its PEP to the replayed stack.
  SpeedtestCampaign::Config config;
  config.access = AccessKind::kSatCom;
  config.tests = 2;
  config.test_duration = Duration::seconds(6);
  config.seed = 4242;
  const auto a = SpeedtestCampaign::run(config);
  const auto b = SpeedtestCampaign::run(config);
  ASSERT_FALSE(a.mbps.empty());
  EXPECT_EQ(a.mbps.values(), b.mbps.values());
}

TEST(Determinism, SpeedtestDifferentSeedsDiverge) {
  SpeedtestCampaign::Config config;
  config.access = AccessKind::kStarlink;
  config.tests = 2;
  config.test_duration = Duration::seconds(6);
  config.seed = 1;
  const auto a = SpeedtestCampaign::run(config);
  config.seed = 2;
  const auto b = SpeedtestCampaign::run(config);
  ASSERT_FALSE(a.mbps.empty());
  ASSERT_FALSE(b.mbps.empty());
  EXPECT_NE(a.mbps.values(), b.mbps.values());
}

TEST(Determinism, H3CampaignIsBitIdenticalPerSeed) {
  H3Campaign::Config config;
  config.seed = 31415;
  config.transfers = 2;
  config.bytes = 5ull * 1000 * 1000;
  config.epochs = false;
  const auto a = H3Campaign::run(config);
  const auto b = H3Campaign::run(config);
  ASSERT_FALSE(a.goodput_mbps.empty());
  EXPECT_EQ(a.goodput_mbps.values(), b.goodput_mbps.values());
  EXPECT_EQ(a.rtt_ms.values(), b.rtt_ms.values());
  EXPECT_EQ(a.loss.packets_lost, b.loss.packets_lost);
}

TEST(Determinism, MetricsAndTraceExportsAreByteIdentical) {
  // The promise CI enforces at fig2/fig5 scale, at unit-test scale: the
  // rendered --metrics/--trace documents (not just the parsed numbers) are
  // byte-identical for the same seeds, for any worker count. This is what
  // the event queue and ephemeris fast paths must preserve.
  PingCampaign::Config config;
  config.duration = Duration::minutes(30);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  config.seed = 7;
  config.obs.metrics = true;
  config.obs.trace = true;

  const auto serial = runner::run_merged<PingCampaign>({2, 1}, config);
  const auto parallel = runner::run_merged<PingCampaign>({2, 4}, config);
  const auto again = runner::run_merged<PingCampaign>({2, 4}, config);
  const std::string metrics = obs::metrics_json(serial.obs);
  EXPECT_EQ(metrics, obs::metrics_json(parallel.obs));
  EXPECT_EQ(metrics, obs::metrics_json(again.obs));
  EXPECT_FALSE(metrics.empty());
  const std::string trace = obs::trace_json(serial.obs.events);
  EXPECT_EQ(trace, obs::trace_json(parallel.obs.events));
  EXPECT_EQ(trace, obs::trace_json(again.obs.events));
  EXPECT_FALSE(serial.obs.events.empty());
}

TEST(Determinism, TestbedTopologyIsStable) {
  Testbed a{};
  Testbed b{};
  EXPECT_EQ(a.net().node_count(), b.net().node_count());
  EXPECT_EQ(a.net().link_count(), b.net().link_count());
  ASSERT_EQ(a.anchors().size(), b.anchors().size());
  for (std::size_t i = 0; i < a.anchors().size(); ++i) {
    EXPECT_EQ(a.anchor(i).name, b.anchor(i).name);
    EXPECT_EQ(a.anchor(i).host->addr(), b.anchor(i).host->addr());
  }
}

// ------------------------------------------------ golden transport digests

/// Metrics and provenance on: the digests cover the exports too.
template <typename Config>
Config observed(Config config) {
  config.obs.metrics = true;
  config.obs.provenance = true;
  return config;
}

std::uint64_t h3_digest(bool download) {
  H3Campaign::Config config;
  config.transfers = 2;
  config.download = download;
  // Above half the 10 MB initial window, so the receiver sends MAX_DATA.
  config.bytes = (download ? 12ull : 3ull) * 1000 * 1000;
  config.gap = Duration::seconds(5);
  Digest d;
  d.add(H3Campaign::run(observed(config)));
  return d.h;
}

// Maintenance blips stall the path long enough for probe timeouts (PTO).
const std::shared_ptr<const scenario::Scenario>& blips() {
  static const auto scenario =
      std::make_shared<const scenario::Scenario>(scenario::Scenario::parse(
          "scenario blips\nmaintenance start=1s end=90s period=3s blip=1200ms\n"));
  return scenario;
}

std::uint64_t message_digest(bool upload) {
  MessageCampaign::Config config;
  config.scenario = blips();
  config.sessions = 2;
  config.upload = upload;
  config.session_duration = Duration::seconds(20);
  config.gap = Duration::seconds(5);
  Digest d;
  d.add(MessageCampaign::run(observed(config)));
  return d.h;
}

std::uint64_t speedtest_digest(AccessKind access, bool pep) {
  SpeedtestCampaign::Config config;
  config.access = access;
  config.tests = 2;
  config.test_duration = Duration::seconds(4);
  config.gap = Duration::seconds(20);
  config.satcom_pep = pep;
  Digest d;
  d.add(SpeedtestCampaign::run(observed(config)));
  return d.h;
}

std::uint64_t web_digest() {
  WebCampaign::Config config;
  config.visits = 4;
  config.dns = true;
  Digest d;
  d.add(WebCampaign::run(observed(config)));
  return d.h;
}

// Its golden covers a subset of the Result, so this one walks by hand.
std::uint64_t ping_digest() {
  PingCampaign::Config config;
  config.duration = Duration::hours(2);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  const auto r = PingCampaign::run(observed(config));
  Digest d;
  for (const auto& anchor : r.anchors) d.add(anchor.rtt_ms);
  d.add(r.pings_sent);
  d.add(r.pings_lost);
  d.add(r.obs);
  return d.h;
}

TEST(Determinism, TransportRunsMatchGoldenDigests) {
  // Pinned digests of short runs over every transport path: QUIC streams
  // and messages in both directions (probe timeouts included), TCP over
  // Starlink and over SatCom with the PEP (raw-mode TCP, spoofed connects)
  // and without, web page loads with DNS, and ICMP echo. The determinism
  // harness diffs axes of one build, so a change that moved bits the same
  // way on every axis would pass it; these would not.
  struct Row {
    const char* name;
    std::function<std::uint64_t()> run;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"h3-download", [] { return h3_digest(true); }, 0xe5629476cfd51a4aull},
      {"h3-upload", [] { return h3_digest(false); }, 0x87802139d8259a66ull},
      {"messages-upload", [] { return message_digest(true); }, 0x95310c2cdf076ff8ull},
      {"messages-download", [] { return message_digest(false); }, 0x376b11315afd7560ull},
      {"speedtest-starlink", [] { return speedtest_digest(AccessKind::kStarlink, true); },
       0xe366a3438e5ed032ull},
      {"speedtest-satcom-pep", [] { return speedtest_digest(AccessKind::kSatCom, true); },
       0x5330902c28615eccull},
      {"speedtest-satcom-nopep", [] { return speedtest_digest(AccessKind::kSatCom, false); },
       0x7e5150ee9685dc08ull},
      {"web-dns", web_digest, 0x533dccaaa45d5997ull},
      {"ping", ping_digest, 0x361dabc6890f285full},
  };
  for (const Row& row : rows) {
    const std::uint64_t digest = row.run();
    EXPECT_EQ(digest, row.digest) << row.name << ": 0x" << std::hex << digest;
  }
}

TEST(Determinism, FleetPingCampaignMatchesGoldenDigest) {
  // A 50-terminal fleet under six hours of ping rounds: every populated
  // neighbour cell is hot and runs its own handover scheduler from its own
  // centre, so the digest pins each cell's 15 s sky, not only the
  // foreground's. It covers the EU timeline's samples and the metrics export
  // (fleet handovers, hot cells, reallocations).
  PingCampaign::Config config;
  config.duration = Duration::hours(6);
  config.fleet.size = 50;
  config.obs.metrics = true;
  const auto r = PingCampaign::run(config);
  ASSERT_GT(r.obs.gauges.at("fleet.hot_cells"), 1.0);
  Digest d;
  for (std::size_t i = 0; i < r.eu_timeline.bins(); ++i) d.add(r.eu_timeline.bin(i));
  d.add(obs::metrics_json(r.obs));
  EXPECT_EQ(d.h, 0xec40c64c9465973aull) << "0x" << std::hex << d.h;
}

// --------------------------------------------- golden merged-sweep digests

/// Three seed cells through runner::run_merged, metrics and provenance on.
template <typename Campaign>
std::vector<FieldDigest> merged_digests(typename Campaign::Config config) {
  return field_digests(runner::run_merged<Campaign>({3, 3}, observed(config)));
}

TEST(Determinism, MergedSweepsMatchGoldenDigests) {
  // Pinned per-field digests of a 3-seed sweep of every mergeable campaign
  // result: each field's bits after the cell fold, sample bits and the
  // metrics and breakdown exports included. The golden lists are in
  // declaration order, so they also pin each Result's field list: a field
  // missing from it, listed out of order or folded differently fails here,
  // by name.
  struct Row {
    const char* name;
    std::function<std::vector<FieldDigest>()> run;
    std::vector<FieldDigest> golden;
  };
  const Row rows[] = {
      {"ping",
       [] {
         PingCampaign::Config c;
         c.duration = Duration::hours(2);
         c.epochs = false;
         return merged_digests<PingCampaign>(c);
       },
       {{"anchors", 0x1af757a03ea03e16ull}, {"eu_timeline", 0x7ff1cfe3c1733e82ull},
        {"eu_components", 0x8f524ab1eb607432ull}, {"eu_by_hour", 0x84465319978c2b56ull},
        {"pings_sent", 0x226199828fddb3efull}, {"pings_lost", 0x6159e10b15091f82ull},
        {"obs", 0x713a07f7730ae1f2ull}}},
      {"h3",
       [] {
         H3Campaign::Config c;
         c.transfers = 2;
         c.bytes = 3ull * 1000 * 1000;
         c.gap = Duration::seconds(5);
         return merged_digests<H3Campaign>(c);
       },
       {{"rtt_ms", 0x6762eda30afa63a3ull}, {"goodput_mbps", 0x3dc23fed59dc68f8ull},
        {"loss", 0xe5b804171a2bd735ull}, {"transfers_completed", 0xc72d76e329111ca2ull},
        {"obs", 0x68a5491872644414ull}}},
      {"messages",
       [] {
         MessageCampaign::Config c;
         c.scenario = blips();
         c.sessions = 2;
         c.session_duration = Duration::seconds(20);
         c.gap = Duration::seconds(5);
         return merged_digests<MessageCampaign>(c);
       },
       {{"rtt_ms", 0x3f3f7a40f536c6f5ull}, {"latency_ms", 0x7133f58d7297e52aull},
        {"loss", 0x0202ca9cd54bd0e0ull}, {"messages_sent", 0x758cb7cbc6cc4d7cull},
        {"obs", 0x23687b9ca4546b4full}}},
      {"speedtest",
       [] {
         SpeedtestCampaign::Config c;
         c.tests = 2;
         c.test_duration = Duration::seconds(4);
         c.gap = Duration::seconds(20);
         return merged_digests<SpeedtestCampaign>(c);
       },
       {{"mbps", 0xaea84ea7f38acb33ull}, {"obs", 0xf78961c264c3ffeaull}}},
      {"web",
       [] {
         WebCampaign::Config c;
         c.visits = 6;
         c.visit_timeout = Duration::seconds(2);
         return merged_digests<WebCampaign>(c);
       },
       {{"onload_s", 0x42a31f0ddea41507ull}, {"speedindex_s", 0x023c370f3a231634ull},
        {"setup_ms", 0xe16502ffde573275ull}, {"mean_connections", 0x626b852619e20628ull},
        {"visits_completed", 0x4b05b278f5b46b57ull},
        {"visits_timed_out", 0xb8cec345deb6f259ull}, {"obs", 0xe2d69960f3f9d44aull}}},
      {"road-trip",
       [] {
         RoadTripCampaign::Config c;
         c.duration = Duration::minutes(10);
         c.fleet.size = 8;
         return merged_digests<RoadTripCampaign>(c);
       },
       {{"rtt_by_speed", 0xd6478d05ffb1e38eull}, {"loss_by_speed", 0x43ed0e1ccff4469eull},
        {"outage_s", 0x3eae678101020718ull}, {"comp_ns", 0x39944f2190cb90deull},
        {"probes_sent", 0x8053e2516bf48f7cull}, {"probes_lost", 0xc72d76e329111ca2ull},
        {"reroutes", 0x14a8c6e6211c1fb8ull}, {"cell_migrations", 0x8cd94dbc647756fbull},
        {"tunnels", 0xc72d76e329111ca2ull}, {"route_km", 0xdedda5228fbc7fd2ull},
        {"obs", 0x9d83865ae324ecccull}}},
      {"abr",
       [] {
         AbrCampaign::Config c;
         c.sessions = 1;
         c.session.watch = Duration::seconds(20);
         return merged_digests<AbrCampaign>(c);
       },
       {{"startup_s", 0x295ee1f0945f1999ull}, {"rebuffer_ratio", 0xa62d305d50d0eab5ull},
        {"mean_rung_mbps", 0x88d3434a4686429eull}, {"segment_mbps", 0x2a9554fa9ba710afull},
        {"rebuffer_by_phase", 0x1189ce6bafe4e75full},
        {"rebuffer_events", 0x3da78698b574e6ceull},
        {"quality_switches", 0xc72d76e329111ca2ull}, {"segments", 0x8cd94dbc647756fbull},
        {"sessions_completed", 0x52d83afc37175246ull}, {"obs", 0x3f43e1a6d89e0665ull}}},
      {"vc",
       [] {
         VcCampaign::Config c;
         c.calls = 1;
         c.session.duration = Duration::seconds(5);
         return merged_digests<VcCampaign>(c);
       },
       {{"mos", 0x79aac9e3cc6930a0ull}, {"window_loss_pct", 0x25406389ec46e587ull},
        {"transit_ms", 0xe9a56390f209611dull}, {"mos_by_phase", 0x9029c0231d0696f3ull},
        {"frames_sent", 0x6a72b51bab9f373cull}, {"frames_missed", 0x4b05b278f5b46b57ull},
        {"datagrams_lost", 0xb5edecfcb62aff5eull}, {"calls_completed", 0x52d83afc37175246ull},
        {"obs", 0x9198832d50b5f5deull}}},
      {"game",
       [] {
         GameCampaign::Config c;
         c.matches = 1;
         c.session.duration = Duration::seconds(20);
         return merged_digests<GameCampaign>(c);
       },
       {{"rtt_ms", 0x4510f52bc7adf5c7ull}, {"spikes_by_phase", 0x607da2b2ab1820dbull},
        {"spike_stall_ms", 0x0c4aba520d0cc58full}, {"ticks_high_stall", 0x4088ad0f22267e6aull},
        {"ticks_low_stall", 0xceab4234c4a53c74ull},
        {"spikes_high_stall", 0x9fd51aac9dacb002ull},
        {"spikes_low_stall", 0xc72d76e329111ca2ull}, {"stall_ms", 0x22d0561348547638ull},
        {"ticks_sent", 0x8053e2516bf48f7cull}, {"ticks_lost", 0xb9110da01afa37ccull},
        {"spikes", 0xedf644d504b6086aull}, {"spikes_with_stall", 0x7554a8407c42f2b4ull},
        {"matches_completed", 0x52d83afc37175246ull}, {"obs", 0x03d0acc1364f78b8ull}}},
      {"multivantage",
       [] {
         MultiVantageCampaign::Config c;
         c.duration = Duration::hours(2);
         c.fleet.size = 2000;
         c.fleet.aggregate_idle = true;
         return merged_digests<MultiVantageCampaign>(c);
       },
       {{"vantages", 0xd969b6f5870e01ccull}, {"hot_cells", 0x47e0f540570ce5cbull},
        {"supercells", 0x6822dfdbce4b256full}, {"aggregated_terminals", 0x4e8738625d170933ull},
        {"obs", 0xab98eb045a557faeull}}},
      {"fleet",
       [] {
         fleet::FleetCampaign::Config c;
         c.duration = Duration::seconds(60);
         c.fleet.size = 2000;
         c.fleet.aggregate_idle = true;
         return merged_digests<fleet::FleetCampaign>(c);
       },
       {{"cell_util_down", 0x69beaa8a128bbe5bull}, {"cell_util_up", 0xebb42f73a75a48acull},
        {"terminal_down_mbps", 0x750b9af884645a63ull},
        {"foreground_down_mbps", 0xf65c9702b91f8a0bull},
        {"foreground_up_mbps", 0xfdef6971d780e391ull}, {"terminals", 0x22b3e07abeffb2f4ull},
        {"cells", 0x9fd51aac9dacb002ull}, {"supercells", 0x6822dfdbce4b256full},
        {"aggregated_terminals", 0x7fd627af4348594eull}, {"epochs", 0x989b8f83bf71f534ull},
        {"attaches", 0xa207ec8d29ac47cbull}, {"detaches", 0xbbca4825a3eabb08ull},
        {"handovers", 0x4b05b278f5b46b57ull}, {"reallocations", 0xae7430d514408e43ull},
        {"obs", 0x1e1482da1f342881ull}}},
  };
  for (const Row& row : rows) {
    const std::vector<FieldDigest> got = row.run();
    ASSERT_EQ(got.size(), row.golden.size()) << row.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], row.golden[i]) << row.name << " field " << i;
    }
  }
}

}  // namespace
}  // namespace slp::measure
