// packet_path_test.cpp — the differential harness pinning the packet-path
// fast paths (pooled payloads, batched/analytic links, transport scan
// skipping) to the packet-level reference implementation.
//
// Two layers:
//   * PacketPool — slab/refcount mechanics under churn, stale handles,
//     chained segments, facade-outliving references (ASan-clean by
//     construction of the CI sanitizer job);
//   * Differential — the same seeded workload run with fast-forward ON and
//     OFF must produce identical observable behaviour: identical delivery
//     tap sequences at the sim level (including fall-back boundaries:
//     competing flows, mid-epoch delay retunes, rate ramps, loss attach)
//     and byte-identical --metrics/--trace exports at the campaign level
//     across seeds and --jobs, with only the event count allowed to differ.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "measure/campaign.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "phy/gilbert_elliott.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "sim/packet_pool.hpp"
#include "tcp/tcp.hpp"
#include "quic/quic.hpp"

namespace slp {
namespace {

using namespace slp::literals;
using sim::make_addr;
using sim::PacketPool;
using sim::PayloadRef;

// ================================================================ PacketPool

TEST(PacketPool, MakeReadBackAndRelease) {
  PacketPool pool;
  struct Blob {
    int a;
    double b;
  };
  PayloadRef ref = pool.make<Blob>(Blob{41, 2.5});
  ASSERT_TRUE(static_cast<bool>(ref));
  EXPECT_EQ(ref.as<Blob>()->a, 41);
  EXPECT_EQ(ref.as<Blob>()->b, 2.5);
  EXPECT_EQ(pool.live(), 1u);
  ref.reset();
  EXPECT_FALSE(static_cast<bool>(ref));
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, CopyBumpsRefcountAndDestroysOnce) {
  static int destroyed = 0;
  struct Counted {
    ~Counted() { ++destroyed; }
  };
  destroyed = 0;
  PacketPool pool;
  {
    PayloadRef a = pool.make<Counted>();
    EXPECT_EQ(a.use_count(), 1u);
    PayloadRef b = a;
    EXPECT_EQ(a.use_count(), 2u);
    PayloadRef c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    EXPECT_EQ(c.use_count(), 2u);
    a.reset();
    EXPECT_EQ(c.use_count(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, StaleHandleGenerationSafety) {
  PacketPool pool;
  PayloadRef ref = pool.make<int>(7);
  const PacketPool::Handle h = pool.handle(ref);
  EXPECT_TRUE(pool.alive(h));
  ref.reset();
  EXPECT_FALSE(pool.alive(h));  // slot freed: generation advanced
  // Free-list reuse hands the same slot back with a fresh generation; the
  // stale handle must keep reading as dead.
  PayloadRef again = pool.make<int>(8);
  const PacketPool::Handle h2 = pool.handle(again);
  EXPECT_EQ(h2.slot, h.slot);  // LIFO free list reuses the hot slot
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_FALSE(pool.alive(h));
  EXPECT_TRUE(pool.alive(h2));
}

TEST(PacketPool, ChurnReusesSlotsInsteadOfGrowing) {
  PacketPool pool;
  // 100k alloc/free cycles with a small live window: the pool must settle
  // on one chunk and recycle it, not grow.
  std::vector<PayloadRef> window;
  for (int i = 0; i < 100'000; ++i) {
    window.push_back(pool.make<std::uint64_t>(static_cast<std::uint64_t>(i)));
    if (window.size() > 16) window.erase(window.begin());
  }
  EXPECT_EQ(pool.total_allocs(), 100'000u);
  EXPECT_LE(pool.peak_live(), 17u);
  EXPECT_LE(pool.slots(), PacketPool::kChunkSlots);
  window.clear();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, GrowsAcrossChunksWithoutInvalidatingPayloads) {
  PacketPool pool;
  std::vector<PayloadRef> refs;
  const int n = 1000;  // > kChunkSlots: forces several chunks
  refs.reserve(n);
  for (int i = 0; i < n; ++i) refs.push_back(pool.make<int>(i));
  EXPECT_GT(pool.slots(), PacketPool::kChunkSlots);
  for (int i = 0; i < n; ++i) EXPECT_EQ(*refs[i].as<int>(), i);
  EXPECT_EQ(pool.peak_live(), static_cast<std::uint64_t>(n));
  refs.clear();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, ChainedSegmentsReleaseCascades) {
  // The QUIC payload overflow chain is a PayloadRef linked list; dropping
  // the head must release every segment exactly once (ASan would flag a
  // leak or double free in the sanitizer CI job).
  struct Seg {
    PayloadRef next;
    int v = 0;
  };
  PacketPool pool;
  PayloadRef head = pool.make<Seg>();
  head.as_mutable<Seg>()->v = 0;
  PayloadRef* tail = &head;
  for (int i = 1; i < 100; ++i) {
    Seg* s = tail->as_mutable<Seg>();
    s->next = pool.make<Seg>();
    s->next.as_mutable<Seg>()->v = i;
    tail = &s->next;
  }
  EXPECT_EQ(pool.live(), 100u);
  // Walk and verify before releasing.
  int expect = 0;
  for (const PayloadRef* p = &head; static_cast<bool>(*p);
       p = &p->as<Seg>()->next) {
    EXPECT_EQ(p->as<Seg>()->v, expect++);
  }
  EXPECT_EQ(expect, 100);
  head.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, ReferencesMayOutliveThePool) {
  auto* pool = new PacketPool;
  PayloadRef ref = pool->make<int>(99);
  delete pool;  // facade gone; the slab stays until the last ref drops
  EXPECT_EQ(*ref.as<int>(), 99);
  ref.reset();  // releases the orphaned slab (leak would trip ASan)
}

TEST(PacketPool, PoolAndHeapPayloadsAreEquivalent) {
  // A pool payload must behave exactly like the shared_ptr payload it
  // replaced: shared immutable reads through copies of the packet.
  PacketPool pool;
  sim::Packet p;
  p.payload = pool.make<std::uint64_t>(0xDEADBEEFull);
  sim::Packet copy = p;  // copying a packet shares the payload
  EXPECT_EQ(*copy.payload.as<std::uint64_t>(), 0xDEADBEEFull);
  EXPECT_EQ(p.payload.use_count(), 2u);
  p = sim::Packet{};
  EXPECT_EQ(copy.payload.use_count(), 1u);
  EXPECT_EQ(*copy.payload.as<std::uint64_t>(), 0xDEADBEEFull);
}

// ====================================================== sim-level boundary
//
// Each scripted workload runs twice — simulator fast-forward ON and OFF —
// and must produce the identical per-packet delivery tap sequence (time,
// uid, size, per direction) plus identical link stats and transfer results.
// The scripts aim at the fall-back boundaries: a competing flow joining
// mid-transfer, a handover-style delay retune landing mid-epoch, a
// rain-style rate ramp, and a loss model attaching to a fast direction.

struct TapSeq {
  std::vector<std::tuple<TimePoint, std::uint64_t, std::uint32_t>> ab, ba;
  sim::Link::DirStats sab, sba;
  std::uint64_t acked = 0;
  TimePoint end;

  static void record(std::vector<std::tuple<TimePoint, std::uint64_t, std::uint32_t>>& to,
                     const sim::Simulator& simulator, const sim::Packet& pkt) {
    to.emplace_back(simulator.now(), pkt.uid, pkt.size_bytes);
  }
};

void expect_identical(const TapSeq& fast, const TapSeq& ref) {
  EXPECT_EQ(fast.ab, ref.ab);
  EXPECT_EQ(fast.ba, ref.ba);
  EXPECT_EQ(fast.acked, ref.acked);
  EXPECT_EQ(fast.end == ref.end, true);
  auto same = [](const sim::Link::DirStats& x, const sim::Link::DirStats& y) {
    EXPECT_EQ(x.enqueued_packets, y.enqueued_packets);
    EXPECT_EQ(x.tx_packets, y.tx_packets);
    EXPECT_EQ(x.tx_bytes, y.tx_bytes);
    EXPECT_EQ(x.delivered_packets, y.delivered_packets);
    EXPECT_EQ(x.dropped_overflow, y.dropped_overflow);
    EXPECT_EQ(x.dropped_medium, y.dropped_medium);
    EXPECT_EQ(x.max_queue_bytes, y.max_queue_bytes);
  };
  same(fast.sab, ref.sab);
  same(fast.sba, ref.sba);
}

/// Shared scaffold: two hosts, one 20 Mbps / 10 ms link, a TCP bulk
/// transfer, and a per-test mutation script applied to the link.
template <typename Script>
TapSeq run_tcp_script(bool fast_forward, std::uint64_t bulk_bytes, Script&& script) {
  sim::Simulator simulator{404};
  simulator.set_fast_forward(fast_forward);
  sim::Network net{simulator};
  sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
  sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
  sim::Link& link = net.connect(
      a.uplink(), b.uplink(),
      sim::Network::symmetric(DataRate::mbps(20), 10_ms, 256 * 1024));

  TapSeq out;
  link.set_delivery_tap(0, [&](const sim::Packet& p) { TapSeq::record(out.ab, simulator, p); });
  link.set_delivery_tap(1, [&](const sim::Packet& p) { TapSeq::record(out.ba, simulator, p); });

  tcp::TcpStack sa{a};
  tcp::TcpStack sb{b};
  sb.listen(80, [](tcp::TcpConnection& c) { c.on_data = [](std::uint64_t) {}; });
  tcp::TcpConnection& conn = sa.connect(b.addr(), 80);
  conn.on_established = [&conn, bulk_bytes] { conn.send(bulk_bytes); };

  script(simulator, net, link, a, b, sa, sb);

  simulator.run_until(TimePoint::epoch() + Duration::minutes(5));
  simulator.run();
  out.sab = link.stats_a_to_b();
  out.sba = link.stats_b_to_a();
  out.acked = conn.stats().bytes_acked;
  out.end = simulator.now();
  return out;
}

TEST(Differential, CompetingFlowJoinsMidTransfer) {
  // The second flow shares the bottleneck from t=1s: the fast path must
  // model the shared serializer exactly (the first flow's epochs are no
  // longer alone on the segment).
  auto script = [](sim::Simulator& simulator, sim::Network&, sim::Link&, sim::Host&,
                   sim::Host& b, tcp::TcpStack& sa, tcp::TcpStack& sb) {
    sb.listen(81, [](tcp::TcpConnection& c) { c.on_data = [](std::uint64_t) {}; });
    simulator.schedule_in(1_s, [&sa, &b] {
      tcp::TcpConnection& second = sa.connect(b.addr(), 81);
      second.on_established = [&second] { second.send(1'000'000); };
    });
  };
  expect_identical(run_tcp_script(true, 4'000'000, script),
                   run_tcp_script(false, 4'000'000, script));
}

TEST(Differential, HandoverDelayRetuneLandsMidEpoch) {
  // A handover-slot style one-way-delay step while the transfer is in full
  // flight: the analytic direction must materialize mid-serialization and
  // re-enter the fast path after the drain, with no observable difference.
  auto script = [](sim::Simulator& simulator, sim::Network&, sim::Link& link, sim::Host&,
                   sim::Host&, tcp::TcpStack&, tcp::TcpStack&) {
    simulator.schedule_in(Duration::millis(700), [&link] {
      link.set_delay(0, 25_ms);
      link.set_delay(1, 25_ms);
    });
    simulator.schedule_in(Duration::millis(1500), [&link] {
      link.set_delay(0, 10_ms);
      link.set_delay(1, 10_ms);
    });
  };
  expect_identical(run_tcp_script(true, 4'000'000, script),
                   run_tcp_script(false, 4'000'000, script));
}

TEST(Differential, RainRampRateChangesFire) {
  // A scenario-style rain fade: capacity halves, halves again, recovers.
  auto script = [](sim::Simulator& simulator, sim::Network&, sim::Link& link, sim::Host&,
                   sim::Host&, tcp::TcpStack&, tcp::TcpStack&) {
    simulator.schedule_in(Duration::millis(500), [&link] { link.set_rate(0, DataRate::mbps(10)); });
    simulator.schedule_in(1_s, [&link] { link.set_rate(0, DataRate::mbps(5)); });
    simulator.schedule_in(2_s, [&link] { link.set_rate(0, DataRate::mbps(20)); });
  };
  expect_identical(run_tcp_script(true, 4'000'000, script),
                   run_tcp_script(false, 4'000'000, script));
}

TEST(Differential, LossModelAttachesMidTransfer) {
  // Attaching a loss model disqualifies the fast path outright; in-flight
  // analytic packets must re-enter the event path and face the same draws.
  static phy::GilbertElliott::Config ge_config;
  ge_config.mean_good = 1_s;
  ge_config.mean_bad = 100_ms;
  ge_config.loss_bad = 0.5;
  auto script = [](sim::Simulator& simulator, sim::Network&, sim::Link& link, sim::Host&,
                   sim::Host&, tcp::TcpStack&, tcp::TcpStack&) {
    static std::unique_ptr<phy::GilbertElliott> ge;
    ge = std::make_unique<phy::GilbertElliott>(ge_config, Rng{1212});
    simulator.schedule_in(Duration::millis(800), [&link] { link.set_loss(0, ge.get()); });
  };
  expect_identical(run_tcp_script(true, 2'000'000, script),
                   run_tcp_script(false, 2'000'000, script));
}

TEST(Differential, FastPathEngagesAndFallsBack) {
  sim::Simulator simulator{7};
  sim::Network net{simulator};
  sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
  sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
  sim::Link& link = net.connect(a.uplink(), b.uplink(),
                                sim::Network::symmetric(DataRate::mbps(10), 5_ms));
  EXPECT_TRUE(link.fast_path_active(0));  // static + lossless: analytic
  phy::GilbertElliott ge{{}, Rng{3}};
  link.set_loss(0, &ge);
  EXPECT_FALSE(link.fast_path_active(0));  // loss model: event path
  link.set_loss(0, nullptr);
  EXPECT_TRUE(link.fast_path_active(0));  // idle again: analytic resumes
  // Named (traced) links never take the fast path: they carry sampler
  // probes that read the live queue depth.
  sim::Link::Config traced = sim::Network::symmetric(DataRate::mbps(10), 5_ms);
  traced.name = "probed";
  sim::Host& c = net.add_host("c", make_addr(10, 0, 0, 3));
  sim::Host& d = net.add_host("d", make_addr(10, 0, 0, 4));
  sim::Link& named = net.connect(c.uplink(), d.uplink(), std::move(traced));
  EXPECT_FALSE(named.fast_path_active(0));
}

TEST(Differential, TransportFastForwardKnobsAreInvisible) {
  // TCP/QUIC scan-skipping (RACK floor, loss-timer arming) must not change
  // a single wire event. Exercised through Simulator::set_fast_forward over a
  // lossy path so the skipped scans actually have work to skip.
  auto run_tcp = [](bool ff) {
    sim::Simulator simulator{88};
    simulator.set_fast_forward(ff);
    sim::Network net{simulator};
    sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
    sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
    sim::Link& link = net.connect(a.uplink(), b.uplink(),
                                  sim::Network::symmetric(DataRate::mbps(30), 20_ms));
    phy::GilbertElliott ge{{.mean_good = 500_ms, .mean_bad = 40_ms, .loss_bad = 0.6}, Rng{5}};
    link.set_loss(0, &ge);
    tcp::TcpStack sa{a};
    tcp::TcpStack sb{b};
    sb.listen(80, [](tcp::TcpConnection& c) { c.on_data = [](std::uint64_t) {}; });
    tcp::TcpConnection& conn = sa.connect(b.addr(), 80);
    conn.on_established = [&conn] { conn.send(3'000'000); };
    simulator.run_until(TimePoint::epoch() + Duration::minutes(5));
    return std::tuple{conn.stats().bytes_acked, conn.stats().segments_sent,
                      conn.stats().retransmissions, conn.stats().fast_recoveries,
                      simulator.now()};
  };
  EXPECT_EQ(run_tcp(true), run_tcp(false));

  auto run_quic = [](bool ff) {
    sim::Simulator simulator{89};
    simulator.set_fast_forward(ff);
    sim::Network net{simulator};
    sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
    sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
    sim::Link& link = net.connect(a.uplink(), b.uplink(),
                                  sim::Network::symmetric(DataRate::mbps(30), 20_ms));
    phy::GilbertElliott ge{{.mean_good = 500_ms, .mean_bad = 40_ms, .loss_bad = 0.6}, Rng{6}};
    link.set_loss(0, &ge);
    quic::QuicStack ca{a};
    quic::QuicStack cb{b};
    std::uint64_t got = 0;
    cb.listen(443, [&](quic::QuicConnection& c) {
      c.on_stream_data = [&](std::uint64_t n) { got += n; };
    });
    quic::QuicConnection& conn = ca.connect(b.addr(), 443);
    conn.on_established = [&conn] { conn.send_stream(3'000'000); };
    simulator.run_until(TimePoint::epoch() + Duration::minutes(5));
    return std::tuple{got, conn.stats().packets_sent, conn.stats().packets_lost,
                      conn.stats().largest_pn_sent, simulator.now()};
  };
  EXPECT_EQ(run_quic(true), run_quic(false));
}

// =================================================== campaign-level exports
//
// The acceptance bar from the issue: fast-forward ON and OFF produce
// byte-identical --metrics/--trace exports for fig2/fig5-style runs across
// seeds and --jobs. Only the event-queue counter may (and must) differ.

std::string strip_event_count(const std::string& json) {
  std::istringstream in{json};
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("sim.events_processed") != std::string::npos) continue;
    // Fast-path introspection metrics exist precisely to differ between the
    // two modes (materialization counter, per-direction active gauges).
    if (line.find("sim.ff.") != std::string::npos) continue;
    if (line.find("fast_path_active") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::uint64_t event_count(const std::string& json) {
  const auto pos = json.find("sim.events_processed");
  if (pos == std::string::npos) return 0;
  const auto colon = json.find(':', pos);
  return std::strtoull(json.c_str() + colon + 1, nullptr, 10);
}

obs::Options full_obs() {
  obs::Options opts;
  opts.metrics = true;
  opts.trace = true;
  opts.sample_interval = Duration::minutes(30);
  return opts;
}

template <typename Campaign>
void expect_campaign_identity(typename Campaign::Config config) {
  for (int seeds : {1, 2}) {
    for (int jobs : {1, 2}) {
      config.obs = full_obs();
      config.fast_forward = true;
      const auto on = runner::run_merged<Campaign>({seeds, jobs}, config);
      config.fast_forward = false;
      const auto off = runner::run_merged<Campaign>({seeds, jobs}, config);
      const std::string m_on = obs::metrics_json(on.obs);
      const std::string m_off = obs::metrics_json(off.obs);
      EXPECT_EQ(strip_event_count(m_on), strip_event_count(m_off))
          << "metrics diverged at seeds=" << seeds << " jobs=" << jobs;
      EXPECT_EQ(obs::trace_jsonl(on.obs.events), obs::trace_jsonl(off.obs.events))
          << "trace diverged at seeds=" << seeds << " jobs=" << jobs;
      // The positive control: the fast path actually engaged.
      EXPECT_LT(event_count(m_on), event_count(m_off));
    }
  }
}

TEST(Differential, PingCampaignExportsAreByteIdentical) {
  measure::PingCampaign::Config config;
  config.duration = Duration::hours(2);
  config.cadence = Duration::minutes(10);
  expect_campaign_identity<measure::PingCampaign>(config);
}

TEST(Differential, SpeedtestCampaignExportsAreByteIdentical) {
  measure::SpeedtestCampaign::Config config;
  config.tests = 2;
  config.test_duration = 3_s;
  config.gap = 30_s;
  expect_campaign_identity<measure::SpeedtestCampaign>(config);
}

TEST(Differential, H3CampaignExportsAreByteIdentical) {
  measure::H3Campaign::Config config;
  config.transfers = 1;
  config.bytes = 2'000'000;
  expect_campaign_identity<measure::H3Campaign>(config);
}

TEST(Differential, ScenarioRainRampExportsAreByteIdentical) {
  // A scenario timeline (rain fade ramp) fires set-rate style epochs into
  // the Starlink access while pings run — the scenario-driven fall-back
  // boundary at campaign scale.
  scenario::Scenario scn;
  scn.name = "rain-ramp";
  scn.rain(TimePoint::epoch() + Duration::minutes(10),
           TimePoint::epoch() + Duration::minutes(40),
           /*attenuation_db=*/8.0, /*ramp=*/Duration::minutes(5));
  scn.validate();
  measure::PingCampaign::Config config;
  config.duration = Duration::hours(1);
  config.cadence = Duration::minutes(5);
  config.scenario = std::make_shared<const scenario::Scenario>(std::move(scn));
  expect_campaign_identity<measure::PingCampaign>(config);
}

}  // namespace
}  // namespace slp
