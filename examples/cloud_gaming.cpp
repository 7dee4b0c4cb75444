// cloud_gaming — is Starlink good enough for GeForce Now?
//
// §3.1 of the paper: "GeForce Now, one of the leading platforms, mandates a
// latency below 80ms". This example runs a game-streaming-like workload
// (60 Hz video down at 15 Mbit/s as QUIC messages, tiny input messages up)
// over Starlink and over GEO SatCom, and reports frame latency and the
// fraction of frames meeting the 80 ms budget.
//
//   $ ./build/examples/cloud_gaming [--seed=N] [--seconds=30]
#include <cstdio>

#include "apps/messages.hpp"
#include "bench_common.hpp"
#include "measure/testbed.hpp"
#include "stats/ecdf.hpp"
#include "stats/quantiles.hpp"

namespace {

using namespace slp;

struct GameResult {
  stats::Samples frame_latency_ms;
  stats::Samples input_latency_ms;
};

GameResult play(measure::Testbed& bed, measure::AccessKind kind, Duration duration) {
  GameResult result;
  quic::QuicStack client_stack{bed.client(kind)};
  quic::QuicStack server_stack{bed.campus_server()};

  quic::QuicConnection* server_conn = nullptr;
  server_stack.listen(443, [&](quic::QuicConnection& conn) {
    server_conn = &conn;
    // Input messages arriving at the game server.
    conn.on_message = [&](std::uint64_t, std::uint64_t, TimePoint queued_at) {
      result.input_latency_ms.add((bed.sim().now() - queued_at).to_millis());
    };
  });

  quic::QuicConnection& conn = client_stack.connect(bed.campus_server().addr(), 443);
  conn.on_message = [&](std::uint64_t, std::uint64_t, TimePoint queued_at) {
    result.frame_latency_ms.add((bed.sim().now() - queued_at).to_millis());
  };

  std::unique_ptr<apps::MessageSender> video;
  std::unique_ptr<apps::MessageSender> input;
  conn.on_established = [&] {
    // 60 fps video: ~31 kB per frame = 15 Mbit/s.
    apps::MessageSender::Config video_config;
    video_config.rate_hz = 60.0;
    video_config.min_bytes = 24'000;
    video_config.max_bytes = 38'000;
    video_config.duration = duration;
    video = std::make_unique<apps::MessageSender>(*server_conn, video_config,
                                                  bed.sim().fork_rng("video"));
    video->start();
    // 125 Hz input events, 100 bytes each.
    apps::MessageSender::Config input_config;
    input_config.rate_hz = 125.0;
    input_config.min_bytes = 80;
    input_config.max_bytes = 120;
    input_config.duration = duration;
    input = std::make_unique<apps::MessageSender>(conn, input_config,
                                                  bed.sim().fork_rng("input"));
    input->start();
  };
  bed.sim().run();
  return result;
}

void report(const char* name, const GameResult& result) {
  if (result.frame_latency_ms.empty()) {
    std::printf("  %-8s: no frames delivered\n", name);
    return;
  }
  const auto& f = result.frame_latency_ms;
  const double within_budget =
      100.0 * stats::Ecdf{f}.eval(80.0);
  std::printf("  %-8s: frames median %5.1f ms, p95 %5.1f ms, p99 %5.1f ms | "
              "input median %4.1f ms | %5.1f%% of frames under the 80 ms budget%s\n",
              name, f.median(), f.percentile(95), f.percentile(99),
              result.input_latency_ms.median(), within_budget,
              within_budget > 95.0 ? "  -> playable" : "  -> not playable");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run = bench::Run::own_flags_only(argc, argv);
  const auto seconds = run.flags().get_int("seconds", 30);
  const auto seed = static_cast<std::uint64_t>(run.flags().get_int("seed", 7));
  run.start();

  std::printf("Cloud gaming check (GeForce Now budget: 80 ms, paper §3.1)\n\n");
  {
    measure::TestbedConfig config;
    config.seed = seed;
    config.with_satcom = false;
    measure::Testbed bed{config};
    report("starlink",
           play(bed, measure::AccessKind::kStarlink, Duration::seconds(seconds)));
  }
  {
    measure::TestbedConfig config;
    config.seed = seed;
    measure::Testbed bed{config};
    report("satcom", play(bed, measure::AccessKind::kSatCom, Duration::seconds(seconds)));
  }
  std::printf("\nThe paper's observation: Starlink's latency is compatible with "
              "cloud gaming; geostationary satellite access is not.\n");
  return run.finish();
}
