// quickstart — the 60-second tour of the library.
//
// Builds the paper's testbed (Starlink + GEO SatCom + wired accesses, the
// 11 ping anchors, campus server), then measures the three things everyone
// asks about a new access technology: latency, bulk throughput, and loss.
//
//   $ ./build/examples/quickstart [--seed=N]
#include <cstdio>

#include "apps/h3.hpp"
#include "apps/ping.hpp"
#include "bench_common.hpp"
#include "measure/testbed.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run = bench::Run::own_flags_only(argc, argv);

  // 1. Build the world: one call gives you the whole measurement universe.
  measure::TestbedConfig config;
  config.seed = static_cast<std::uint64_t>(run.flags().get_int("seed", 42));
  run.start();
  measure::Testbed bed{config};
  std::printf("Testbed up: %zu nodes, %zu links, %zu anchors\n\n",
              bed.net().node_count(), bed.net().link_count(), bed.anchors().size());

  // 2. Ping a nearby anchor from each access technology.
  std::printf("== 5 pings to %s from each access ==\n", bed.anchor(0).name.c_str());
  for (const auto kind : {measure::AccessKind::kStarlink, measure::AccessKind::kSatCom,
                          measure::AccessKind::kWired}) {
    apps::PingApp::Config ping_config;
    ping_config.target = bed.anchor(0).host->addr();
    ping_config.count = 5;
    apps::PingApp ping{bed.client(kind), ping_config};
    ping.on_complete = [kind](const std::vector<apps::PingApp::Probe>& probes) {
      std::printf("  %-8s:", std::string{measure::to_string(kind)}.c_str());
      for (const auto& probe : probes) {
        if (probe.lost) {
          std::printf("   lost");
        } else {
          std::printf(" %5.1fms", probe.rtt.to_millis());
        }
      }
      std::printf("\n");
    };
    ping.start();
    bed.sim().run();
  }

  // 3. One 25 MB HTTP/3 download over Starlink, with loss accounting.
  std::printf("\n== 25 MB HTTP/3 download over Starlink ==\n");
  quic::QuicStack client_stack{bed.client(measure::AccessKind::kStarlink)};
  quic::QuicStack server_stack{bed.campus_server()};
  apps::H3Server::Config server_config;
  server_config.object_bytes = 25'000'000;
  apps::H3Server server{server_stack, server_config};

  apps::H3Client::Config h3_config;
  h3_config.server = bed.campus_server().addr();
  h3_config.bytes = 25'000'000;
  apps::H3Client h3{client_stack, h3_config};
  h3.on_complete = [&](const apps::H3Client::Result& result) {
    std::printf("  transferred %.1f MB in %.2f s -> %.1f Mbit/s, %llu packets lost\n",
                result.bytes / 1e6, result.duration.to_seconds(),
                result.goodput.to_mbps(),
                static_cast<unsigned long long>(result.packets_lost));
  };
  h3.start();
  bed.sim().run();

  std::printf("\nDone. Explore bench/ for every figure and table of the paper.\n");
  return run.finish();
}
