// video_streaming — can Starlink sustain 4K streams?
//
// §3.3 of the paper: "Netflix's 4K videos require a download bandwidth of
// 15 Mbit/s, while Disney+ recommends 25 Mbit/s." This example plays each
// bitrate as a qoe::AbrVideoSession (the fig8 ABR model: segment downloads
// over H3/QUIC into a client playout buffer) whose ladder holds that single
// rung, over Starlink, and counts rebuffering events per bitrate.
//
//   $ ./build/examples/video_streaming [--seed=N] [--minutes=3]
#include <cstdio>

#include "bench_common.hpp"
#include "measure/testbed.hpp"
#include "qoe/abr.hpp"
#include "quic/quic.hpp"

int main(int argc, char** argv) {
  using namespace slp;
  bench::Run run = bench::Run::own_flags_only(argc, argv);
  const auto minutes = run.flags().get_int("minutes", 3);
  const auto seed = static_cast<std::uint64_t>(run.flags().get_int("seed", 11));
  run.start();

  std::printf("ABR video over Starlink (paper §3.3: 4K needs 15-25 Mbit/s)\n\n");
  for (const double mbps : {15.0, 25.0, 60.0, 120.0}) {
    measure::TestbedConfig config;
    config.seed = seed;
    config.with_satcom = false;
    measure::Testbed bed{config};

    // A DASH-like player pinned to one rung: 4 s segments, playback starts
    // (and resumes after a stall) at 8 s buffered, at most 16 s fetched ahead.
    qoe::AbrVideoSession::Config player;
    player.ladder.rungs_mbps = {mbps};
    player.segment = Duration::seconds(4);
    player.startup_buffer_s = 8.0;
    player.resume_buffer_s = 8.0;
    player.max_buffer_s = 16.0;
    player.watch = Duration::minutes(minutes);

    quic::QuicStack client_stack{bed.client(measure::AccessKind::kStarlink)};
    quic::QuicStack server_stack{bed.campus_server()};
    qoe::AbrVideoSession video{client_stack.connect(bed.campus_server().addr(), 443), player};
    server_stack.listen(443, [&video](quic::QuicConnection& conn) { video.attach_server(conn); });
    video.start();
    // Bounded horizon: a QUIC transfer that stalls for good never completes,
    // and the session has no watchdog of its own.
    bed.sim().run_until(TimePoint::epoch() + Duration::minutes(minutes + 2));
    if (!video.finished()) {
      std::printf("  %5.0f Mbit/s: stream never finished playback (unsustainable)\n", mbps);
      continue;
    }
    const qoe::AbrVideoSession::Metrics& m = video.metrics();
    std::printf("  %5.0f Mbit/s: %3d segments, startup %4.1f s, rebuffers %d, "
                "stalled %.1f s %s\n",
                mbps, m.segments_downloaded, m.startup_delay.to_seconds(), m.rebuffer_events,
                m.rebuffer_time.to_seconds(),
                m.rebuffer_events == 0 ? "-> smooth" : "-> degraded");
  }
  std::printf("\nExpected: 15-60 Mbit/s rungs stream cleanly on Starlink; rungs "
              "near/above the downlink share rebuffer.\n");
  return run.finish();
}
