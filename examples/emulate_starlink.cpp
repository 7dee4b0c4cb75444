// emulate_starlink — use the ERRANT-style profile to emulate a Starlink
// link for your own experiments (the paper's released artifact, §1/§4).
//
// Shows both halves of the artifact:
//   1. exporting netem command lines for a real testbed, and
//   2. applying a sampled profile to a simulated link and validating the
//      emulation with a ping + a bulk transfer.
//
//   $ ./build/examples/emulate_starlink [--seed=N]
#include <cstdio>

#include "apps/ping.hpp"
#include "bench_common.hpp"
#include "emu/errant.hpp"
#include "sim/network.hpp"
#include "tcp/tcp.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  using sim::make_addr;
  bench::Run run = bench::Run::own_flags_only(argc, argv);
  Rng rng{static_cast<std::uint64_t>(run.flags().get_int("seed", 5))};
  run.start();

  // A hand-specified Starlink profile at the paper's headline numbers (the
  // errant_profiles bench shows how to *fit* one from campaign data).
  const emu::ErrantProfile starlink{
      "starlink",
      {std::log(178.0), 0.30},  // download Mbit/s
      {std::log(17.0), 0.30},   // upload Mbit/s
      {std::log(50.0), 0.20},   // RTT ms
      0.18,                     // jitter fraction
      0.004};                   // loss

  std::printf("Profile: %s\n\n", starlink.describe().c_str());
  std::printf("netem command lines for a physical testbed:\n");
  for (const auto& cmd : starlink.median().netem_commands("eth0", "ifb0")) {
    std::printf("  %s\n", cmd.c_str());
  }

  // Apply one sampled instance to a simulated link and validate it.
  const emu::NetemParams params = starlink.sample(rng);
  std::printf("\nsampled instance: down %.0f Mbit/s, up %.1f Mbit/s, RTT %.1f ms, "
              "loss %.2f%%\n",
              params.rate_down.to_mbps(), params.rate_up.to_mbps(),
              params.delay_one_way.to_millis() * 2.0, params.loss_ratio * 100.0);

  sim::Simulator simulator{rng.next()};
  sim::Network net{simulator};
  sim::Host& client = net.add_host("client", make_addr(10, 0, 0, 2));
  sim::Host& server = net.add_host("server", make_addr(10, 0, 0, 1));
  sim::Link& link = net.connect(client.uplink(), server.uplink(),
                                sim::Network::symmetric(DataRate::gbps(1), Duration::millis(1),
                                                        2 * 1024 * 1024));
  std::vector<std::unique_ptr<sim::LossModel>> loss_models;
  emu::apply(params, link, loss_models, rng.fork("apply"));
  // Note on loss: netem's i.i.d. loss is brutal to a single TCP flow (the
  // classic Mathis 1/sqrt(p) collapse) — that is faithful emulator behavior,
  // but for the throughput validation below we disable it to check that the
  // configured *rate* is realized.
  link.set_loss(0, nullptr);
  link.set_loss(1, nullptr);

  // Validation 1: ping through the emulated link.
  apps::PingApp::Config ping_config;
  ping_config.target = server.addr();
  ping_config.count = 5;
  apps::PingApp ping{client, ping_config};
  ping.on_complete = [&](const std::vector<apps::PingApp::Probe>& probes) {
    std::printf("\nemulated pings:");
    for (const auto& probe : probes) {
      if (probe.lost) {
        std::printf(" lost");
      } else {
        std::printf(" %.1fms", probe.rtt.to_millis());
      }
    }
    std::printf("  (target RTT %.1f ms)\n", params.delay_one_way.to_millis() * 2.0);
  };
  ping.start();
  simulator.run();

  // Validation 2: a 20 MB TCP download through the emulated link.
  tcp::TcpStack client_stack{client};
  tcp::TcpStack server_stack{server};
  server_stack.listen(80, [](tcp::TcpConnection& c) {
    c.on_data = [&c](std::uint64_t) { c.send(20'000'000); };
  });
  std::uint64_t got = 0;
  TimePoint first_byte;
  TimePoint last_byte;
  tcp::TcpConnection& conn = client_stack.connect(server.addr(), 80);
  conn.on_data = [&](std::uint64_t n) {
    if (got == 0) first_byte = simulator.now();
    got += n;
    last_byte = simulator.now();
  };
  conn.on_established = [&conn] { conn.send(100); };
  simulator.run_until(simulator.now() + Duration::minutes(3));
  if (got > 0) {
    std::printf("emulated 20 MB download: %.1f Mbit/s (link set to %.0f)\n",
                got * 8.0 / (last_byte - first_byte).to_seconds() / 1e6,
                params.rate_down.to_mbps());
  }
  std::printf("\nUse emu::ErrantProfile::fit() on campaign output to regenerate "
              "the data-driven model (see bench/errant_profiles).\n");
  return run.finish();
}
