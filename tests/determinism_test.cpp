// determinism_test.cpp — the reproducibility guarantees the README promises:
// identical seeds give bit-identical campaigns; different seeds differ.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string_view>

#include "fleet/demand.hpp"
#include "measure/campaign.hpp"
#include "measure/testbed.hpp"
#include "obs/recorder.hpp"
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

/// Order-sensitive digest of a run's results: sample bit patterns, counts and
/// the rendered metrics and breakdown exports.
struct Digest {
  std::uint64_t h = 0;
  void add(std::uint64_t x) { h = fleet::mix64(h, x); }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(std::string_view text) {
    add(std::uint64_t{text.size()});
    for (const char c : text) add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  void add(const stats::Samples& s) {
    add(std::uint64_t{s.size()});
    for (const double x : s.values()) add(x);
  }
  void add(const LossAnalyzer::Report& r) {
    add(r.packets_received);
    add(r.packets_lost);
    add(r.loss_events);
    add(r.loss_ratio);
    for (const auto& [len, n] : r.burst_lengths.buckets()) {
      add(len);
      add(n);
    }
    add(r.event_durations_ms);
    add(r.outage_events);
  }
  void add(const obs::Snapshot& snap) {
    add(obs::metrics_json(snap));
    add(obs::breakdown_json(snap));
  }
};

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
  const auto r = H3Campaign::run(observed(config));
  Digest d;
  d.add(r.rtt_ms);
  d.add(r.goodput_mbps);
  d.add(r.loss);
  d.add(std::uint64_t(r.transfers_completed));
  d.add(r.obs);
  return d.h;
}

std::uint64_t message_digest(bool upload) {
  // Maintenance blips stall the path long enough for probe timeouts (PTO).
  static const auto blips = std::make_shared<const scenario::Scenario>(scenario::Scenario::parse(
      "scenario blips\nmaintenance start=1s end=90s period=3s blip=1200ms\n"));
  MessageCampaign::Config config;
  config.scenario = blips;
  config.sessions = 2;
  config.upload = upload;
  config.session_duration = Duration::seconds(20);
  config.gap = Duration::seconds(5);
  const auto r = MessageCampaign::run(observed(config));
  Digest d;
  d.add(r.rtt_ms);
  d.add(r.latency_ms);
  d.add(r.loss);
  d.add(std::uint64_t(r.messages_sent));
  d.add(r.obs);
  return d.h;
}

std::uint64_t speedtest_digest(AccessKind access, bool pep) {
  SpeedtestCampaign::Config config;
  config.access = access;
  config.tests = 2;
  config.test_duration = Duration::seconds(4);
  config.gap = Duration::seconds(20);
  config.satcom_pep = pep;
  const auto r = SpeedtestCampaign::run(observed(config));
  Digest d;
  d.add(r.mbps);
  d.add(r.obs);
  return d.h;
}

std::uint64_t web_digest() {
  WebCampaign::Config config;
  config.visits = 4;
  config.dns = true;
  const auto r = WebCampaign::run(observed(config));
  Digest d;
  d.add(r.onload_s);
  d.add(r.speedindex_s);
  d.add(r.setup_ms);
  d.add(r.mean_connections);
  d.add(std::uint64_t(r.visits_completed));
  d.add(std::uint64_t(r.visits_timed_out));
  d.add(r.obs);
  return d.h;
}

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

}  // namespace
}  // namespace slp::measure
