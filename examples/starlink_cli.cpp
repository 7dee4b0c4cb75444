// starlink_cli — a measurement multi-tool over the simulated testbed, in the
// spirit of the command-line tools the paper used (ping, speedtest-cli,
// traceroute, wehe) but pointed at the simulation.
//
//   starlink_cli ping       [--access=starlink|satcom|wired] [--anchor=N] [--count=N]
//                           (--access also takes the aliases leo and geo)
//   starlink_cli speedtest  [--access=...] [--upload] [--connections=N]
//   starlink_cli h3         [--upload] [--mb=N] [--qlog]
//   starlink_cli traceroute [--access=...]
//   starlink_cli wehe       [--access=...]
//   common: --seed=N
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "apps/h3.hpp"
#include "apps/ping.hpp"
#include "apps/speedtest.hpp"
#include "bench_common.hpp"
#include "mbox/traceroute.hpp"
#include "mbox/wehe.hpp"
#include "measure/testbed.hpp"
#include "quic/qlog.hpp"

namespace {

using namespace slp;

// Each command reads its own flags, then calls run.start() — which rejects
// any flag left unread — before it simulates anything.

int cmd_ping(bench::Run& run, measure::Testbed& bed, measure::AccessKind access) {
  const auto anchor_index =
      static_cast<std::size_t>(run.flags().get_int("anchor", 0)) % bed.anchors().size();
  const auto& anchor = bed.anchor(anchor_index);
  apps::PingApp::Config config;
  config.target = anchor.host->addr();
  config.count = static_cast<int>(run.flags().get_int("count", 5));
  run.start();
  apps::PingApp ping{bed.client(access), config};
  std::printf("PING %s (%s) from %s\n", anchor.name.c_str(),
              sim::addr_to_string(anchor.host->addr()).c_str(),
              std::string{measure::to_string(access)}.c_str());
  ping.on_complete = [&](const std::vector<apps::PingApp::Probe>& probes) {
    int lost = 0;
    for (const auto& probe : probes) {
      if (probe.lost) {
        std::printf("  seq=%d timeout\n", probe.seq);
        ++lost;
      } else {
        std::printf("  seq=%d time=%.1f ms\n", probe.seq, probe.rtt.to_millis());
      }
    }
    std::printf("%d probes, %d lost\n", static_cast<int>(probes.size()), lost);
  };
  ping.start();
  bed.sim().run();
  return run.finish();
}

int cmd_speedtest(bench::Run& run, measure::Testbed& bed, measure::AccessKind access) {
  apps::Speedtest::Config config;
  config.server = bed.ookla_server().addr();
  config.download = !run.flags().get_bool("upload", false);
  config.connections = static_cast<int>(run.flags().get_int("connections", 8));
  run.start();
  tcp::TcpStack client_stack{bed.client(access)};
  tcp::TcpStack server_stack{bed.ookla_server()};
  apps::SpeedtestServer server{server_stack};
  apps::Speedtest test{client_stack, config};
  std::printf("Speedtest (%s, %s, %d connections)...\n",
              std::string{measure::to_string(access)}.c_str(),
              config.download ? "download" : "upload", config.connections);
  test.on_complete = [](const apps::Speedtest::Result& result) {
    std::printf("  %.1f Mbit/s over %.1f s (%llu bytes)\n", result.goodput.to_mbps(),
                result.window.to_seconds(),
                static_cast<unsigned long long>(result.bytes_measured));
  };
  test.start();
  bed.sim().run();
  return run.finish();
}

int cmd_h3(bench::Run& run, measure::Testbed& bed) {
  const Flags& flags = run.flags();
  const auto mb = static_cast<std::uint64_t>(flags.get_int("mb", 100));
  const bool download = !flags.get_bool("upload", false);
  const bool want_qlog = flags.get_bool("qlog", false);
  const std::string path = flags.get("qlog-file", "h3.qlog.json");
  run.start();
  quic::QuicStack client_stack{bed.client(measure::AccessKind::kStarlink)};
  quic::QuicStack server_stack{bed.campus_server()};
  apps::H3Server::Config server_config;
  server_config.object_bytes = mb * 1'000'000;
  apps::H3Server server{server_stack, server_config};
  apps::H3Client::Config config;
  config.server = bed.campus_server().addr();
  config.download = download;
  config.bytes = mb * 1'000'000;
  apps::H3Client h3{client_stack, config};
  h3.start();
  quic::QlogTrace trace;
  if (want_qlog) trace.attach(h3.connection(), "h3-transfer");
  std::printf("H3 %s of %llu MB over Starlink...\n", config.download ? "GET" : "PUT",
              static_cast<unsigned long long>(mb));
  h3.on_complete = [&](const apps::H3Client::Result& result) {
    std::printf("  %.1f Mbit/s in %.2f s, %llu packets lost\n", result.goodput.to_mbps(),
                result.duration.to_seconds(),
                static_cast<unsigned long long>(result.packets_lost));
  };
  bed.sim().run();
  if (want_qlog) {
    std::ofstream out{path};
    trace.write_json(out);
    std::printf("  qlog with %zu events written to %s\n", trace.size(), path.c_str());
  }
  return run.finish();
}

int cmd_traceroute(bench::Run& run, measure::Testbed& bed, measure::AccessKind access) {
  run.start();
  mbox::Traceroute::Config config;
  config.target = bed.campus_server().addr();
  mbox::Traceroute traceroute{bed.client(access), config};
  std::printf("traceroute to campus-server (%s) from %s\n",
              sim::addr_to_string(config.target).c_str(),
              std::string{measure::to_string(access)}.c_str());
  traceroute.on_complete = [](const std::vector<mbox::Traceroute::Hop>& hops) {
    for (const auto& hop : hops) {
      if (hop.reporter == 0) {
        std::printf("  %2d  *\n", hop.ttl);
      } else {
        std::printf("  %2d  %-16s %7.1f ms%s\n", hop.ttl,
                    sim::addr_to_string(hop.reporter).c_str(), hop.rtt.to_millis(),
                    hop.reached_destination ? "  (destination)" : "");
      }
    }
  };
  traceroute.start();
  bed.sim().run();
  return run.finish();
}

int cmd_wehe(bench::Run& run, measure::Testbed& bed, measure::AccessKind access) {
  mbox::WeheClient::Config config;
  config.server = bed.campus_server().addr();
  config.repetitions = static_cast<int>(run.flags().get_int("reps", 3));
  run.start();
  mbox::WeheServer server{bed.campus_server()};
  mbox::WeheClient wehe{bed.client(access), config};
  std::printf("Wehe differential replay (%d repetitions) over %s...\n", config.repetitions,
              std::string{measure::to_string(access)}.c_str());
  wehe.on_complete = [](const mbox::WeheClient::Report& report) {
    std::printf("  original %.2f Mbit/s vs randomized %.2f Mbit/s -> %s\n",
                report.mean_original_mbps, report.mean_randomized_mbps,
                report.differentiation_detected ? "DIFFERENTIATION DETECTED"
                                                : "no differentiation");
  };
  wehe.start();
  bed.sim().run();
  return run.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run = bench::Run::own_flags_only(argc, argv);
  const Flags& flags = run.flags();
  // The command is checked before anything is built: a missing or unknown
  // one exits 2 with one "error:" line, like every other unusable argument.
  const std::string* command = flags.positional(0);  // the one positional
  constexpr std::string_view kCommands[] = {"ping", "speedtest", "h3", "traceroute", "wehe"};
  if (command == nullptr || std::ranges::find(kCommands, *command) == std::end(kCommands)) {
    const std::string what =
        command == nullptr ? "no command" : "unknown command '" + *command + "'";
    std::fprintf(stderr, "error: %s (want ping|speedtest|h3|traceroute|wehe)\n", what.c_str());
    return 2;
  }
  const auto access = measure::parse_access(flags.get("access", "starlink"));
  if (!access) flags.reject("access", "want starlink|leo|satcom|geo|wired");
  measure::TestbedConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  measure::Testbed bed{config};

  const auto kind = access.value_or(measure::AccessKind::kStarlink);  // checked by start()
  if (*command == "ping") return cmd_ping(run, bed, kind);
  if (*command == "speedtest") return cmd_speedtest(run, bed, kind);
  if (*command == "h3") return cmd_h3(run, bed);
  if (*command == "traceroute") return cmd_traceroute(run, bed, kind);
  return cmd_wehe(run, bed, kind);
}
