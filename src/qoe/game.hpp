// game.hpp — online-game traffic and lag-spike detection.
//
// "Network Characteristics of LEO Satellite Constellations" (PAPERS.md)
// studies interactive traffic over LEO links: small bidirectional UDP ticks
// whose tail latency — not throughput — decides playability. This model
// sends client input ticks at a fixed rate, the server echoes a (larger)
// state snapshot per tick, and the client flags lag spikes: an RTT far above
// the rolling median, or a tick whose snapshot never arrives. Each spike
// record carries the send time (for 15 s handover-slot phase clustering) and
// the `handover_stall` nanoseconds from the snapshot's provenance tag, so
// campaigns can show spikes lining up with handovers, not random loss.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "obs/breakdown.hpp"
#include "sim/host.hpp"
#include "util/units.hpp"

namespace slp::qoe {

/// Streaming lag-spike detector over a rolling RTT window: pure logic,
/// shared by the session and the micro bench. The default thresholds are
/// tuned to competitive-game sensitivity (a >30% step that is also >12 ms
/// absolute): the scale of the access model's per-slot beam penalty, so
/// handover-boundary steps register without flagging ordinary frame jitter.
class LagDetector {
 public:
  struct Config {
    int window = 33;            ///< rolling-median window (ticks)
    int min_samples = 8;        ///< no verdicts before this many RTTs
    double factor = 1.3;        ///< spike if rtt > factor * median ...
    double floor_ms = 12.0;     ///< ... and rtt > median + floor
    /// Absolute "unplayable ping" bound: any RTT above this is a spike
    /// regardless of the median (0 disables). The median-relative rule
    /// catches *steps*; this catches slots that are simply bad — which is
    /// what couples spike rate to the slot's handover_stall penalty.
    double abs_ms = 0.0;
  };

  LagDetector() : LagDetector(Config{}) {}
  explicit LagDetector(Config config) : config_{config} {}

  /// Feeds one RTT sample; returns true when it qualifies as a spike.
  /// (A spike sample still enters the window: sustained congestion raises
  /// the median and stops counting as "spikes" — the detector looks for
  /// steps, matching how players perceive lag.)
  [[nodiscard]] bool add(double rtt_ms);

  [[nodiscard]] double median() const;

 private:
  Config config_;
  std::deque<double> window_;
  /// median()'s nth_element workspace, reused so a sample never allocates.
  mutable std::vector<double> scratch_;
};

class GameSession {
 public:
  struct Config {
    double tick_rate = 30.0;
    std::uint32_t client_bytes = 60;    ///< input tick wire size
    std::uint32_t server_bytes = 300;   ///< state snapshot wire size
    Duration duration = Duration::minutes(1);
    int timeout_ticks = 15;             ///< missing for this many ticks = lost
    LagDetector::Config detector;
    std::uint16_t server_port = 7777;
  };

  struct Tick {
    TimePoint sent_at;
    double rtt_ms = 0.0;
    bool lost = false;
    bool spike = false;
    std::int64_t handover_stall_ns = 0;  ///< from the snapshot's provenance
  };

  struct Metrics {
    std::vector<Tick> ticks;
    std::uint64_t spikes = 0;
    std::uint64_t lost = 0;
  };

  GameSession(sim::Host& client, sim::Host& server, Config config);
  ~GameSession();

  GameSession(const GameSession&) = delete;
  GameSession& operator=(const GameSession&) = delete;

  void start();
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  std::function<void(const Metrics&)> on_complete;

 private:
  void tick();
  void on_snapshot(const sim::Packet& pkt);
  void mark_lost(std::size_t seq);
  void note_spike(Tick& t);
  void finish();

  sim::Host* client_;
  sim::Host* server_;
  Config config_;
  Metrics metrics_;
  LagDetector detector_;
  std::uint64_t flow_id_ = 0;
  std::uint16_t client_port_ = 0;
  std::uint64_t ticks_total_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timeout_check_ = 0;  ///< oldest seq not yet resolved/lost
  bool finished_ = false;
  bool server_bound_ = false;
  sim::Timer tick_timer_;
  sim::Timer drain_timer_;
};

}  // namespace slp::qoe
