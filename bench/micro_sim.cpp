// Microbenchmarks (google-benchmark) for the simulator's hot paths: event
// queue churn, link packet forwarding (one link, and a NAT + router chain),
// congestion-controller updates, QUIC transfer event rate, constellation
// visibility queries, fleet placement and cell-grid lookups, and the
// cell-load process's far seek and step. These guard the performance
// envelope that makes the compressed campaigns tractable.
#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "fleet/cell_arbiter.hpp"
#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "leo/access.hpp"
#include "leo/constellation.hpp"
#include "leo/handover.hpp"
#include "leo/places.hpp"
#include "mobility/obstruction.hpp"
#include "mobility/routes.hpp"
#include "phy/load_process.hpp"
#include "qoe/abr.hpp"
#include "qoe/vc.hpp"
#include "quic/quic.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "stats/summary.hpp"
#include "tcp/congestion.hpp"

namespace {

using namespace slp;
using namespace slp::literals;
using sim::make_addr;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(Duration::micros(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_TimerRearm(benchmark::State& state) {
  sim::Simulator sim;
  sim::Timer timer{sim};
  for (auto _ : state) {
    timer.arm(1_ms, [] {});
  }
  timer.cancel();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm);

void BM_LinkPacketForwarding(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Network net{sim};
    sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
    sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
    net.connect(a.uplink(), b.uplink(),
                sim::Network::symmetric(DataRate::gbps(10), 1_ms, 64 * 1024 * 1024));
    std::uint64_t delivered = 0;
    b.bind(sim::Protocol::kUdp, 1, [&](const sim::Packet&) { ++delivered; });
    for (int i = 0; i < 1000; ++i) {
      sim::Packet pkt;
      pkt.dst = b.addr();
      pkt.dst_port = 1;
      pkt.proto = sim::Protocol::kUdp;
      pkt.size_bytes = 1250;
      a.send(std::move(pkt));
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkPacketForwarding);

void BM_ForwardingChain(benchmark::State& state) {
  // The page-load path in miniature: Host -> Nat -> Router -> Host, with a
  // NAT mapping and a bound port per flow, as a long cell accumulates them.
  // One topology serves every iteration, so the tables stay populated.
  constexpr int kFlows = 512;
  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host& a = net.add_host("a", make_addr(192, 168, 1, 10));
  sim::Host& b = net.add_host("b", make_addr(203, 0, 113, 7));
  sim::Nat& nat = net.add_nat("cpe", make_addr(192, 168, 1, 1), make_addr(100, 70, 1, 5));
  sim::Router& core = net.add_router("core");
  sim::Interface& left = core.add_interface(make_addr(100, 70, 1, 1));
  sim::Interface& right = core.add_interface(make_addr(203, 0, 113, 1));
  const auto link = sim::Network::symmetric(DataRate::gbps(10), 1_ms, 64 * 1024 * 1024);
  net.connect(a.uplink(), nat.inside(), link);
  net.connect(nat.outside(), left, link);
  net.connect(right, b.uplink(), link);
  core.routes().add_route(make_addr(100, 70, 1, 0), 24, left);
  core.routes().add_route(make_addr(203, 0, 113, 0), 24, right);
  std::uint64_t delivered = 0;
  for (int p = 0; p < kFlows; ++p) {
    b.bind(sim::Protocol::kUdp, static_cast<std::uint16_t>(1000 + p),
           [&](const sim::Packet&) { ++delivered; });
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim::Packet pkt;
      pkt.dst = b.addr();
      pkt.src_port = static_cast<std::uint16_t>(40000 + i % kFlows);
      pkt.dst_port = static_cast<std::uint16_t>(1000 + i % kFlows);
      pkt.proto = sim::Protocol::kUdp;
      pkt.size_bytes = 1250;
      a.send(std::move(pkt));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_ForwardingChain);

void BM_PacketPoolAllocFree(benchmark::State& state) {
  // The payload hot loop: acquire a slot, construct a QUIC-record-sized
  // payload, copy the ref (the sent_ bookkeeping share), release both.
  // Steady state must touch only the pool free list — zero malloc.
  sim::PacketPool pool;
  struct Record {
    std::uint64_t pn;
    std::byte body[200];
  };
  for (auto _ : state) {
    sim::PayloadRef ref = pool.make<Record>();
    sim::PayloadRef share = ref;
    benchmark::DoNotOptimize(share.as<Record>());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolAllocFree);

void BM_CubicOnAck(benchmark::State& state) {
  cc::Cubic cubic{cc::CcConfig{}};
  TimePoint now;
  for (auto _ : state) {
    now = now + Duration::micros(100);
    cubic.on_ack(1448, Duration::millis(50), now);
    benchmark::DoNotOptimize(cubic.cwnd_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CubicOnAck);

void BM_QuicOneMegabyteTransfer(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim{9};
    sim::Network net{sim};
    sim::Host& a = net.add_host("a", make_addr(10, 0, 0, 1));
    sim::Host& b = net.add_host("b", make_addr(10, 0, 0, 2));
    net.connect(a.uplink(), b.uplink(),
                sim::Network::symmetric(DataRate::mbps(200), 10_ms, 4 * 1024 * 1024));
    quic::QuicStack ca{a};
    quic::QuicStack cb{b};
    std::uint64_t got = 0;
    cb.listen(443, [&](quic::QuicConnection& c) {
      c.on_stream_data = [&](std::uint64_t n) { got += n; };
    });
    quic::QuicConnection& conn = ca.connect(b.addr(), 443);
    conn.on_established = [&conn] { conn.send_stream(1'000'000); };
    sim.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_QuicOneMegabyteTransfer);

void BM_ConstellationVisibility(benchmark::State& state) {
  leo::Constellation shell{leo::Constellation::Config{}};
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 15;
    const auto visible = shell.visible_from(leo::places::kLouvainLaNeuve,
                                            TimePoint::epoch() + Duration::seconds(t), 25.0);
    benchmark::DoNotOptimize(visible.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConstellationVisibility);

void BM_ConstellationVisibilityReuse(benchmark::State& state) {
  // The handover scheduler's steady-state shape: one warmed buffer reused
  // every 15 s tick, so the query allocates nothing.
  leo::Constellation shell{leo::Constellation::Config{}};
  std::vector<leo::Constellation::VisibleSat> buf;
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 15;
    shell.visible_from(leo::places::kLouvainLaNeuve,
                       TimePoint::epoch() + Duration::seconds(t), 25.0, 0, buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConstellationVisibilityReuse);

void BM_HandoverComputePath(benchmark::State& state) {
  // One 15 s slot of the default scheduler (Louvain-la-Neuve, the European
  // gateways): visibility, gateway gates and the draw. Each round queries
  // the next slot, so every path_at recomputes; buffers are warm.
  const leo::Constellation shell{leo::Constellation::Config{}};
  leo::HandoverScheduler::Config config;
  config.terminal = leo::places::kLouvainLaNeuve;
  config.gateways = leo::default_european_gateways();
  leo::HandoverScheduler scheduler{shell, config, Rng{1}};
  std::int64_t t = 0;
  (void)scheduler.path_at(TimePoint::epoch());
  for (auto _ : state) {
    t += 15;
    benchmark::DoNotOptimize(scheduler.path_at(TimePoint::epoch() + Duration::seconds(t)).sat);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandoverComputePath);

void BM_FleetAttachDetach(benchmark::State& state) {
  // Membership churn on one cell: attach/detach keep the id-ordered member
  // vector sorted; the fleet's epoch loop does this for every demand-session
  // boundary, so it must stay cheap at realistic per-cell populations.
  fleet::CellArbiter arb{fleet::CellArbiter::Config{}, Rng{3}.fork("d"), Rng{3}.fork("u")};
  for (fleet::TerminalId id = 0; id < 128; ++id) arb.attach(id, 1.0, false);
  fleet::TerminalId next = 128;
  for (auto _ : state) {
    arb.attach(next, 1.0, false);
    arb.detach(next - 128);
    ++next;
  }
  benchmark::DoNotOptimize(arb.members());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetAttachDetach);

void BM_CellArbiterReallocate(benchmark::State& state) {
  // One full water-filling epoch over a busy cell (every member active, all
  // demands perturbed each round so the epoch is never a clean no-op).
  fleet::CellArbiter arb{fleet::CellArbiter::Config{}, Rng{4}.fork("d"), Rng{4}.fork("u")};
  arb.attach(0xFFFFFFFFu, 1.0, true);
  for (fleet::TerminalId id = 0; id < 128; ++id) arb.attach(id, 1.0, false);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 2;
    for (fleet::TerminalId id = 0; id < 128; ++id) {
      const double mbps = 1.0 + static_cast<double>((id + t) % 40);
      arb.set_demand(id, DataRate::mbps(mbps), DataRate::mbps(mbps / 8.0));
    }
    arb.reallocate(TimePoint::epoch() + Duration::seconds(t));
    benchmark::DoNotOptimize(arb.background_allocated(fleet::CellArbiter::kDown));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellArbiterReallocate);

void BM_HierarchicalGridLookup(benchmark::State& state) {
  // The aggregation hot path: point -> base cell -> supercell. Every fold
  // into / promotion out of an aggregate does exactly this pair of lookups,
  // and the continental placement does it once per populated cell per tick
  // when publishing analytic utilization.
  fleet::HierarchicalGrid hier{24.0, 8};
  std::int64_t i = 0;
  for (auto _ : state) {
    ++i;
    const leo::GeoPoint p{40.0 + static_cast<double>(i % 2000) * 0.01,
                          -10.0 + static_cast<double>((i * 7) % 4000) * 0.01};
    const fleet::CellId base = hier.base().cell_of(p);
    benchmark::DoNotOptimize(hier.super_of(base));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchicalGridLookup);

void BM_PlacementContinental(benchmark::State& state) {
  // The continental fleet's setup: a million terminals apportioned over the
  // European grid (urban plumes and rural fill, per-cell jitter, largest
  // remainder), a fresh seed per round.
  fleet::Placement::Config config = fleet::Placement::continental_europe();
  config.terminals = 1'000'000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const fleet::Placement placement = fleet::Placement::generate(config, Rng{++seed});
    benchmark::DoNotOptimize(placement.cell_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementContinental);

void BM_FleetBuildContinental(benchmark::State& state) {
  // The continental fleet's set-up: the Fleet constructor (placement, the
  // fold of every idle cell into its supercell aggregate, the first epoch)
  // and the simulator, network and access it is built on, a fresh
  // simulator seed per round.
  fleet::Fleet::Config fc;
  fc.size = 1'000'000;
  fc.placement = fleet::Placement::continental_europe();
  fc.aggregate_idle = true;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::Simulator sim{++seed};
    sim::Network net{sim};
    leo::StarlinkAccess access{net, leo::StarlinkAccess::Config{}};
    const fleet::Fleet fleet{sim, access, fc};
    benchmark::DoNotOptimize(fleet.aggregates().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetBuildContinental);

void BM_ShardedArbiterEpoch(benchmark::State& state) {
  // One fleet epoch over a continental hot set (every populated cell live,
  // no aggregation), stepped serially (arg 1) or across a worker pool
  // (arg 4). The exported bytes are identical either way — this measures
  // the wall-time of the shard + fold cycle that tick() runs.
  sim::Simulator sim{7};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, leo::StarlinkAccess::Config{}};
  fleet::Fleet::Config fc;
  fc.size = 20000;
  fc.placement = fleet::Placement::continental_europe();
  fc.aggregate_idle = false;
  fc.handovers = false;
  fc.shards = static_cast<int>(state.range(0));
  sim.schedule_in(Duration::hours(24 * 365), [] {});  // keep the timer armed
  fleet::Fleet fleet{sim, access, fc};
  const Duration epoch = fc.epoch;
  for (auto _ : state) {
    sim.run_for(epoch);
    benchmark::DoNotOptimize(fleet.epochs());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(fleet.cell_count()));
}
BENCHMARK(BM_ShardedArbiterEpoch)->Arg(1)->Arg(4);

void BM_FleetRunFold(benchmark::State& state) {
  // One epoch's run batch in the continental fleet's shape: hot-cell
  // terminals whose allocation moved (runs of 1-64 epochs onto 500-sample
  // histories whose mean is not the run's value, so every sample is a
  // Welford step) and the supercell runs a reader flushes (2700 epochs onto
  // empty groups: one add, then sums only). Each round folds the batch into
  // fresh copies of the same summaries; ns_per_op is one batch.
  constexpr std::size_t kTerminals = 24;
  constexpr std::size_t kSupercells = 8;
  Rng rng{11};
  std::vector<stats::StreamingSummary> base(kTerminals + kSupercells);
  std::vector<std::pair<double, std::uint64_t>> runs;
  for (std::size_t i = 0; i < kTerminals; ++i) {
    for (int j = 0; j < 500; ++j) base[i].add(rng.uniform(1.0, 40.0));
    runs.emplace_back(rng.uniform(1.0, 40.0), static_cast<std::uint64_t>(rng.uniform_int(1, 64)));
  }
  for (std::size_t i = 0; i < kSupercells; ++i) runs.emplace_back(rng.uniform(0.1, 0.9), 2700);
  std::vector<stats::StreamingSummary> work;
  stats::RunBatch batch;
  for (auto _ : state) {
    work = base;
    for (std::size_t i = 0; i < runs.size(); ++i) batch.stage(work[i], runs[i].first, runs[i].second);
    batch.fold();
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetRunFold);

void BM_TrajectoryPositionAt(benchmark::State& state) {
  // Closed-form O(1) state lookup on the highway route — this is the per-tick
  // cost of the mobility epoch (and the per-probe cost of speed binning), so
  // it must stay cheap enough to run at 1 Hz x campaign length for free.
  const mobility::Route route = mobility::routes::highway();
  const std::int64_t total_ns = route.trajectory.total_duration().ns();
  std::int64_t i = 0;
  for (auto _ : state) {
    // Pseudo-scan: jump around the route so segment search isn't warm-cached
    // on one leg.
    const auto t = Duration::nanos((++i * 977 * 1'000'000) % total_ns);
    benchmark::DoNotOptimize(route.trajectory.state_at(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrajectoryPositionAt);

void BM_ObstructionMaskQuery(benchmark::State& state) {
  // Candidate-filter cost: one blocks() per visible satellite per slot
  // recompute while a mask is active.
  const mobility::ObstructionMask mask{{
      {20.0, 160.0, 50.0},
      {200.0, 340.0, 50.0},
      {60.0, 120.0, 42.0},
  }};
  std::int64_t i = 0;
  for (auto _ : state) {
    ++i;
    const double az = static_cast<double>((i * 37) % 360);
    const double el = static_cast<double>((i * 13) % 90);
    const double heading = static_cast<double>((i * 101) % 360);
    benchmark::DoNotOptimize(mask.blocks(az, el, heading));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObstructionMaskQuery);

void BM_AbrLadderDecision(benchmark::State& state) {
  // One rate-ladder pick per segment boundary: the ABR client's only
  // per-segment control-plane cost (qoe::AbrVideoSession).
  const qoe::AbrLadder ladder;
  std::int64_t i = 0;
  for (auto _ : state) {
    ++i;
    const double buffer_s = static_cast<double>((i * 7) % 320) * 0.1;
    benchmark::DoNotOptimize(ladder.pick(buffer_s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbrLadderDecision);

void BM_JitterBufferPlayout(benchmark::State& state) {
  // The videoconference receiver's per-frame hot path (qoe::VcSession):
  // datagram parts land in the reassembly maps, due frames are finalized
  // against the playout deadline, and each 30-frame window folds into an
  // E-model MOS.
  constexpr std::uint32_t kParts = 3;
  constexpr std::uint64_t kWindow = 30;
  std::map<std::uint64_t, std::uint32_t> arrived;
  std::map<std::uint64_t, TimePoint> complete_at;
  std::uint64_t frame = 0;
  std::uint64_t next_final = 0;
  std::uint64_t window_bad = 0;
  double mos_acc = 0.0;
  for (auto _ : state) {
    const TimePoint capture = TimePoint::epoch() + Duration::millis(static_cast<std::int64_t>(frame) * 33);
    for (std::uint32_t p = 0; p < kParts; ++p) {
      if (++arrived[frame] == kParts) complete_at[frame] = capture + Duration::millis(40);
    }
    ++frame;
    while (next_final + 2 < frame) {  // two frames of reorder slack, as in VcSession
      const auto it = complete_at.find(next_final);
      const bool late = it == complete_at.end() ||
                        it->second > capture + Duration::millis(120);
      if (late) ++window_bad;
      arrived.erase(next_final);
      if (it != complete_at.end()) complete_at.erase(it);
      if (++next_final % kWindow == 0) {
        const double loss_pct = 100.0 * static_cast<double>(window_bad) / kWindow;
        mos_acc += qoe::emodel_mos(85.0, loss_pct);
        window_bad = 0;
      }
    }
  }
  benchmark::DoNotOptimize(mos_acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JitterBufferPlayout);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Schedule + cancel without draining: exercises O(1) cancel, slot reuse and
  // the compaction bound (RTO-rearm churn is this pattern at transport scale).
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    const sim::EventId id = q.schedule(TimePoint::epoch() + Duration::micros(t), [] {});
    q.cancel(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_LoadProcessFarSeek(benchmark::State& state) {
  // A fresh cell-load process read at the second H3 session's day 140: a
  // jump-ahead and a coupled window, not 6M replayed AR(1) steps.
  const phy::LoadProcess::Config cfg = leo::StarlinkAccess::Config{}.downlink_load;
  const TimePoint day140 = TimePoint::epoch() + Duration::days(140);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    phy::LoadProcess load{cfg, Rng{++seed}};
    benchmark::DoNotOptimize(load.utilization(day140));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadProcessFarSeek);

void BM_LoadProcessStep(benchmark::State& state) {
  // Consecutive 2 s steps: the sequential path every packet-level cell takes.
  phy::LoadProcess load{leo::StarlinkAccess::Config{}.downlink_load, Rng{1}};
  TimePoint t = TimePoint::epoch();
  for (auto _ : state) {
    t = t + Duration::seconds(2);
    benchmark::DoNotOptimize(load.utilization(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadProcessStep);

void BM_LoadProcessGap(benchmark::State& state) {
  // Reads range(0) 2 s steps apart: 10 and 30 min idle step sequentially,
  // 40 min is just far enough (4x the first seek window) to seek.
  phy::LoadProcess load{leo::StarlinkAccess::Config{}.downlink_load, Rng{1}};
  const Duration gap = Duration::seconds(2 * state.range(0));
  TimePoint t = TimePoint::epoch();
  for (auto _ : state) {
    t = t + gap;
    benchmark::DoNotOptimize(load.utilization(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadProcessGap)->Arg(300)->Arg(900)->Arg(1200);

}  // namespace

BENCHMARK_MAIN();
