// alloc_test.cpp — steady-state packet hops never touch the heap.
//
// This binary replaces the global operator new with a counting one, so it
// stands alone: every other suite runs on the stock allocator. A UDP
// ping-pong crosses Host -> Nat -> Router -> Host and back; after one warm-up
// round (which opens the NAT mappings and grows the event slab, the heap and
// the link rings to their working size) an identical round must make zero
// allocations, in the analytic fast path and in batched event mode alike.
//
// AddressSanitizer owns operator new (it reports frees of blocks its own new
// handed out as mismatches), so a sanitized build runs the same hops without
// the counter and skips the zero-allocation assertion.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SLP_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLP_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef SLP_COUNT_ALLOCATIONS
#define SLP_COUNT_ALLOCATIONS 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

#if SLP_COUNT_ALLOCATIONS
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace slp::sim {
namespace {

using namespace slp::literals;

constexpr Ipv4Addr kLanHost = make_addr(192, 168, 1, 10);
constexpr Ipv4Addr kServer = make_addr(203, 0, 113, 7);
constexpr int kPorts = 300;       ///< bound on the server; one NAT mapping each
constexpr int kBursts = 50;
constexpr int kBurstPackets = 12;  ///< fits one util::Ring block (16 slots)

/// Allocations made by one steady-state round of kBursts x kBurstPackets
/// echoed datagrams, measured after an identical warm-up round.
std::uint64_t steady_round_allocations(bool fast_forward) {
  Simulator sim{3};
  sim.set_fast_forward(fast_forward);
  Network net{sim};
  Host& client = net.add_host("client", kLanHost);
  Host& server = net.add_host("server", kServer);
  Nat& nat = net.add_nat("cpe", make_addr(192, 168, 1, 1), make_addr(100, 70, 1, 5));
  Router& core = net.add_router("core");
  Interface& core_left = core.add_interface(make_addr(100, 70, 1, 1));
  Interface& core_right = core.add_interface(make_addr(203, 0, 113, 1));
  net.connect(client.uplink(), nat.inside(), Network::symmetric(DataRate::gbps(1), 1_ms));
  net.connect(nat.outside(), core_left, Network::symmetric(DataRate::gbps(1), 1_ms));
  net.connect(core_right, server.uplink(), Network::symmetric(DataRate::gbps(1), 1_ms));
  core.routes().add_route(make_addr(100, 70, 1, 0), 24, core_left);
  core.routes().add_route(make_addr(203, 0, 113, 0), 24, core_right);

  std::uint64_t echoed = 0;
  std::uint64_t returned = 0;
  for (int p = 0; p < kPorts; ++p) {
    server.bind(Protocol::kUdp, static_cast<std::uint16_t>(1000 + p), [&](const Packet& in) {
      ++echoed;
      Packet reply;
      reply.dst = in.src;
      reply.src_port = in.dst_port;
      reply.dst_port = in.src_port;
      reply.proto = Protocol::kUdp;
      reply.size_bytes = in.size_bytes;
      server.send(std::move(reply));
    });
    client.bind(Protocol::kUdp, static_cast<std::uint16_t>(40000 + p),
                [&](const Packet&) { ++returned; });
  }

  // Burst b sends kBurstPackets datagrams at t0 + 10 ms * b, cycling through
  // the ports; every round uses the same ports, so only the warm-up maps.
  const auto schedule_round = [&] {
    const TimePoint t0 = sim.now();
    for (int b = 0; b < kBursts; ++b) {
      sim.schedule_at(t0 + Duration::millis(10 * b), [&client, b] {
        for (int i = 0; i < kBurstPackets; ++i) {
          const int port = (b * kBurstPackets + i) % kPorts;
          Packet pkt;
          pkt.dst = kServer;
          pkt.src_port = static_cast<std::uint16_t>(40000 + port);
          pkt.dst_port = static_cast<std::uint16_t>(1000 + port);
          pkt.proto = Protocol::kUdp;
          pkt.size_bytes = 1200;
          client.send(std::move(pkt));
        }
      });
    }
  };

  schedule_round();
  sim.run();
  schedule_round();
  g_allocations.store(0);
  g_counting.store(true);
  sim.run();
  g_counting.store(false);

  constexpr std::uint64_t kPerRound = std::uint64_t{kBursts} * kBurstPackets;
  EXPECT_EQ(echoed, 2 * kPerRound);
  EXPECT_EQ(returned, 2 * kPerRound);
  EXPECT_EQ(nat.mapping_count(), static_cast<std::size_t>(kPorts));
  return g_allocations.load();
}

void expect_no_allocations(bool fast_forward) {
  const std::uint64_t allocations = steady_round_allocations(fast_forward);
  if (!SLP_COUNT_ALLOCATIONS) GTEST_SKIP() << "allocation count needs the stock operator new";
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocFree, FastPathHopsNeverAllocate) { expect_no_allocations(/*fast_forward=*/true); }

TEST(AllocFree, BatchedEventHopsNeverAllocate) { expect_no_allocations(/*fast_forward=*/false); }

}  // namespace
}  // namespace slp::sim
