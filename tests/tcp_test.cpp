#include <gtest/gtest.h>

#include "phy/outage.hpp"
#include "sim/network.hpp"
#include "tcp/congestion.hpp"
#include "tcp/tcp.hpp"

namespace slp::tcp {
namespace {

using namespace slp::literals;
using sim::make_addr;

// ------------------------------------------------------------ Congestion

TEST(Cubic, StartsAtInitialWindow) {
  cc::Cubic cubic{cc::CcConfig{}};
  EXPECT_EQ(cubic.cwnd_bytes(), 10u * 1448u);
  EXPECT_TRUE(cubic.in_slow_start());
  EXPECT_EQ(cubic.name(), "cubic");
}

TEST(Cubic, SlowStartDoublesPerRtt) {
  cc::Cubic cubic{cc::CcConfig{}};
  const std::uint64_t before = cubic.cwnd_bytes();
  // Acknowledge one full window.
  cubic.on_ack(before, 50_ms, TimePoint::epoch() + 50_ms);
  EXPECT_EQ(cubic.cwnd_bytes(), 2 * before);
}

TEST(Cubic, CongestionEventAppliesBeta) {
  cc::Cubic cubic{cc::CcConfig{}};
  cubic.on_ack(100'000, 50_ms, TimePoint::epoch() + 50_ms);
  const std::uint64_t before = cubic.cwnd_bytes();
  cubic.on_congestion_event(TimePoint::epoch() + 100_ms);
  EXPECT_NEAR(static_cast<double>(cubic.cwnd_bytes()), 0.7 * static_cast<double>(before),
              1500.0);
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(Cubic, RegrowsTowardWmaxAfterLoss) {
  cc::Cubic cubic{cc::CcConfig{}};
  TimePoint now = TimePoint::epoch();
  // Grow to ~1MB, then lose, then verify cubic growth recovers most of it.
  while (cubic.cwnd_bytes() < 1'000'000) {
    now = now + 50_ms;
    cubic.on_ack(cubic.cwnd_bytes(), 50_ms, now);
  }
  const std::uint64_t w_max = cubic.cwnd_bytes();
  cubic.on_congestion_event(now);
  const std::uint64_t reduced = cubic.cwnd_bytes();
  ASSERT_LT(reduced, w_max);
  for (int i = 0; i < 200; ++i) {
    now = now + 50_ms;
    cubic.on_ack(cubic.cwnd_bytes() / 2, 50_ms, now);
  }
  EXPECT_GT(cubic.cwnd_bytes(), reduced + (w_max - reduced) / 2);
}

TEST(Cubic, RtoCollapsesToMinWindow) {
  cc::Cubic cubic{cc::CcConfig{}};
  cubic.on_ack(500'000, 50_ms, TimePoint::epoch() + 50_ms);
  cubic.on_rto(TimePoint::epoch() + 1_s);
  EXPECT_EQ(cubic.cwnd_bytes(), 2u * 1448u);
}

TEST(NewReno, AdditiveIncreaseAfterLoss) {
  cc::NewReno reno{cc::CcConfig{}};
  reno.on_congestion_event(TimePoint::epoch());
  const std::uint64_t base = reno.cwnd_bytes();
  EXPECT_FALSE(reno.in_slow_start());
  // One cwnd of acked bytes -> exactly +1 MSS.
  reno.on_ack(base, 50_ms, TimePoint::epoch() + 50_ms);
  EXPECT_EQ(reno.cwnd_bytes(), base + 1448u);
}

TEST(NewReno, HalvesOnCongestion) {
  cc::NewReno reno{cc::CcConfig{}};
  reno.on_ack(200'000, 50_ms, TimePoint::epoch() + 50_ms);
  const std::uint64_t before = reno.cwnd_bytes();
  reno.on_congestion_event(TimePoint::epoch() + 100_ms);
  EXPECT_EQ(reno.cwnd_bytes(), before / 2);
}

TEST(CcRto, NewRenoAndCubicCollapseToMinCwnd) {
  cc::CcConfig config;
  config.min_cwnd_bytes = 3 * 1448;  // not the default, so the config is what's read
  for (const cc::CcAlgorithm algo : {cc::CcAlgorithm::kNewReno, cc::CcAlgorithm::kCubic}) {
    const auto ctl = cc::make_controller(algo, config);
    SCOPED_TRACE(ctl->name());
    ctl->on_ack(300'000, 50_ms, TimePoint::epoch() + 50_ms);
    const std::uint64_t before = ctl->cwnd_bytes();
    ASSERT_GT(before, config.min_cwnd_bytes);
    ctl->on_rto(TimePoint::epoch() + 1_s);
    EXPECT_EQ(ctl->cwnd_bytes(), config.min_cwnd_bytes);
    EXPECT_LT(ctl->ssthresh_bytes(), before);  // the RTO is also a congestion event
    EXPECT_TRUE(ctl->in_slow_start());
  }
}

TEST(CcFactory, MakesBothAlgorithms) {
  EXPECT_EQ(cc::make_controller(cc::CcAlgorithm::kCubic)->name(), "cubic");
  EXPECT_EQ(cc::make_controller(cc::CcAlgorithm::kNewReno)->name(), "newreno");
}

// ------------------------------------------------------------ Fixture

constexpr sim::Ipv4Addr kClientAddr = make_addr(10, 0, 0, 2);
constexpr sim::Ipv4Addr kServerAddr = make_addr(203, 0, 113, 10);

/// client --(rate, delay)-- server, directly connected.
class TcpLinkTest : public ::testing::Test {
 protected:
  void build(DataRate rate, Duration one_way_delay,
             std::size_t queue_bytes = 512 * 1024) {
    client_host_ = &net_.add_host("client", kClientAddr);
    server_host_ = &net_.add_host("server", kServerAddr);
    link_ = &net_.connect(client_host_->uplink(), server_host_->uplink(),
                          sim::Network::symmetric(rate, one_way_delay, queue_bytes));
    client_ = std::make_unique<TcpStack>(*client_host_);
    server_ = std::make_unique<TcpStack>(*server_host_);
  }

  sim::Simulator sim_{7};
  sim::Network net_{sim_};
  sim::Host* client_host_ = nullptr;
  sim::Host* server_host_ = nullptr;
  sim::Link* link_ = nullptr;
  std::unique_ptr<TcpStack> client_;
  std::unique_ptr<TcpStack> server_;
};

TEST_F(TcpLinkTest, HandshakeCompletesInOneRtt) {
  build(DataRate::mbps(100), 10_ms);
  bool client_up = false;
  bool server_up = false;
  TimePoint established_at;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_established = [&] { server_up = true; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&] {
    client_up = true;
    established_at = sim_.now();
  };
  sim_.run();
  EXPECT_TRUE(client_up);
  EXPECT_TRUE(server_up);
  // SYN + SYN/ACK = 1 RTT (20ms) plus tiny serialization.
  EXPECT_GE(established_at - TimePoint::epoch(), 20_ms);
  EXPECT_LT(established_at - TimePoint::epoch(), 21_ms);
  EXPECT_EQ(conn.state(), TcpState::kEstablished);
}

TEST_F(TcpLinkTest, TransfersExactByteCount) {
  build(DataRate::mbps(100), 5_ms);
  std::uint64_t delivered = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(1'000'000); };
  sim_.run();
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_EQ(conn.stats().bytes_acked, 1'000'000u);
  EXPECT_EQ(conn.bytes_in_flight(), 0u);
}

TEST_F(TcpLinkTest, ThroughputApproachesLinkRate) {
  build(DataRate::mbps(50), 10_ms, 1024 * 1024);
  std::uint64_t delivered = 0;
  TimePoint done_at;
  const std::uint64_t total = 20'000'000;  // 20 MB
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) {
      delivered += n;
      if (delivered >= total) done_at = c.state() == TcpState::kDone ? done_at : sim_.now();
    };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(total); };
  sim_.run();
  ASSERT_EQ(delivered, total);
  const double seconds = (done_at - TimePoint::epoch()).to_seconds();
  const double goodput_mbps = total * 8.0 / seconds / 1e6;
  // Expect at least 80% of the 50 Mbit/s link after slow start.
  EXPECT_GT(goodput_mbps, 40.0);
  EXPECT_LE(goodput_mbps, 50.0);
}

TEST_F(TcpLinkTest, RecoversFromRandomLoss) {
  build(DataRate::mbps(50), 10_ms);
  phy::BernoulliLoss loss{0.02, Rng{3}};
  link_->set_loss(0, &loss);  // client -> server direction
  std::uint64_t delivered = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(5'000'000); };
  sim_.run();
  EXPECT_EQ(delivered, 5'000'000u);
  EXPECT_GT(conn.stats().retransmissions, 0u);
  EXPECT_GT(conn.stats().fast_recoveries, 0u);
}

TEST_F(TcpLinkTest, SurvivesHeavyBidirectionalLoss) {
  build(DataRate::mbps(20), 20_ms);
  phy::BernoulliLoss loss_fwd{0.05, Rng{4}};
  phy::BernoulliLoss loss_rev{0.05, Rng{5}};
  link_->set_loss(0, &loss_fwd);
  link_->set_loss(1, &loss_rev);
  std::uint64_t delivered = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(1'000'000); };
  sim_.run();
  EXPECT_EQ(delivered, 1'000'000u);
}

TEST_F(TcpLinkTest, DropTailQueueCausesFastRecoveryNotRto) {
  // Small queue at the bottleneck: cubic must overflow it and recover via
  // SACK/fast retransmit, with zero (or nearly zero) RTOs.
  build(DataRate::mbps(20), 25_ms, 128 * 1024);
  std::uint64_t delivered = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(10'000'000); };
  sim_.run();
  EXPECT_EQ(delivered, 10'000'000u);
  EXPECT_GT(conn.stats().fast_recoveries, 0u);
  EXPECT_LE(conn.stats().rtos, 1u);
}

TEST_F(TcpLinkTest, RttSamplesReflectPathAndQueueing) {
  build(DataRate::mbps(10), 30_ms, 256 * 1024);
  std::vector<double> rtts;
  server_->listen(80, [](TcpConnection&) {});
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_rtt_sample = [&](Duration d) { rtts.push_back(d.to_millis()); };
  conn.on_established = [&conn] { conn.send(2'000'000); };
  sim_.run();
  ASSERT_GT(rtts.size(), 10u);
  for (const double r : rtts) EXPECT_GE(r, 60.0);  // never below 2x30ms
  // Under load the queue fills: max RTT must exceed the base RTT noticeably.
  const double max_rtt = *std::max_element(rtts.begin(), rtts.end());
  EXPECT_GT(max_rtt, 80.0);
}

TEST_F(TcpLinkTest, ReceiveWindowAutotunesUpFromDefault) {
  build(DataRate::mbps(200), 30_ms, 2 * 1024 * 1024);
  std::uint64_t delivered = 0;
  TcpConnection* server_conn = nullptr;
  server_->listen(80, [&](TcpConnection& c) {
    server_conn = &c;
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(30'000'000); };
  sim_.run();
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(delivered, 30'000'000u);
  // 131072 default must have grown towards the 6MB cap (BDP here is 1.5MB).
  EXPECT_GT(server_conn->rcv_buffer_bytes(), 1'000'000u);
  EXPECT_LE(server_conn->rcv_buffer_bytes(), 6'291'456u);
}

TEST_F(TcpLinkTest, RwndLimitsThroughputOnLongFatPath) {
  // 600ms RTT (GEO-like) at 100 Mbit/s: BDP = 7.5MB > 6MB rwnd cap, so
  // throughput must be rwnd/RTT ~ 80 Mbit/s, not the link rate.
  build(DataRate::mbps(100), 300_ms, 8 * 1024 * 1024);
  std::uint64_t delivered = 0;
  TimePoint first_byte;
  TimePoint last_byte;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) {
      if (delivered == 0) first_byte = sim_.now();
      delivered += n;
      last_byte = sim_.now();
    };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(60'000'000); };
  sim_.run();
  ASSERT_EQ(delivered, 60'000'000u);
  // Ignore slow-start: measure from 10s in.
  const double seconds = (last_byte - first_byte).to_seconds();
  const double mbps = delivered * 8.0 / seconds / 1e6;
  EXPECT_LT(mbps, 95.0);
  EXPECT_GT(mbps, 40.0);
}

TEST_F(TcpLinkTest, FinHandshakeClosesBothSides) {
  build(DataRate::mbps(100), 5_ms);
  bool server_closed = false;
  bool client_closed = false;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&c](std::uint64_t) { c.close(); };
    c.on_closed = [&] { server_closed = true; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] {
    conn.send(1000);
    conn.close();
  };
  conn.on_closed = [&] { client_closed = true; };
  sim_.run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(conn.state(), TcpState::kDone);
  client_->gc();
  EXPECT_EQ(client_->connection_count(), 0u);
}

TEST_F(TcpLinkTest, SynRetransmitsWithBackoffThenGivesUp) {
  build(DataRate::mbps(100), 5_ms);
  // Black-hole the forward direction entirely.
  class DropAll final : public sim::LossModel {
   public:
    bool should_drop(TimePoint, const sim::Packet&) override { return true; }
  };
  DropAll drop;
  link_->set_loss(0, &drop);
  bool error = false;
  server_->listen(80, [](TcpConnection&) {});
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_error = [&] { error = true; };
  sim_.run_until(TimePoint::epoch() + Duration::minutes(5));
  EXPECT_TRUE(error);
  EXPECT_EQ(conn.state(), TcpState::kDone);
}

TEST_F(TcpLinkTest, RtoRecoversFromAckBlackout) {
  build(DataRate::mbps(50), 10_ms);
  // Drop everything for 2 seconds in the middle of the transfer.
  class WindowDrop final : public sim::LossModel {
   public:
    bool should_drop(TimePoint now, const sim::Packet&) override {
      return now >= TimePoint::epoch() + Duration::millis(300) &&
             now < TimePoint::epoch() + Duration::millis(2300);
    }
  };
  WindowDrop drop;
  link_->set_loss(0, &drop);
  std::uint64_t delivered = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t n) { delivered += n; };
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_established = [&conn] { conn.send(5'000'000); };
  sim_.run();
  EXPECT_EQ(delivered, 5'000'000u);
  EXPECT_GE(conn.stats().rtos, 1u);
}

TEST_F(TcpLinkTest, TwoConnectionsShareBottleneckRoughlyFairly) {
  build(DataRate::mbps(40), 15_ms, 512 * 1024);
  std::map<std::uint16_t, std::uint64_t> delivered;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&delivered, &c](std::uint64_t n) { delivered[c.remote_port()] += n; };
  });
  TcpConnection& c1 = client_->connect(kServerAddr, 80);
  TcpConnection& c2 = client_->connect(kServerAddr, 80);
  c1.on_established = [&c1] { c1.send(50'000'000); };
  c2.on_established = [&c2] { c2.send(50'000'000); };
  sim_.run_until(TimePoint::epoch() + 10_s);
  ASSERT_EQ(delivered.size(), 2u);
  const double a = static_cast<double>(delivered[c1.local_port()]);
  const double b = static_cast<double>(delivered[c2.local_port()]);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  // Rough fairness: neither connection starves (>20% share).
  EXPECT_GT(std::min(a, b) / (a + b), 0.2);
  // Combined they saturate the link reasonably well.
  EXPECT_GT((a + b) * 8.0 / 10.0 / 1e6, 28.0);
}

TEST_F(TcpLinkTest, ServerToClientTransferWorks) {
  build(DataRate::mbps(100), 10_ms);
  std::uint64_t client_got = 0;
  server_->listen(80, [&](TcpConnection& c) {
    c.on_data = [&c](std::uint64_t) { c.send(500'000); };  // respond to request
  });
  TcpConnection& conn = client_->connect(kServerAddr, 80);
  conn.on_data = [&](std::uint64_t n) { client_got += n; };
  conn.on_established = [&conn] { conn.send(200); };  // "GET /"
  sim_.run();
  EXPECT_EQ(client_got, 500'000u);
}

}  // namespace
}  // namespace slp::tcp
