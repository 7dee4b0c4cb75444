// wehe.hpp — traffic-discrimination detection by differential replay
// (Li et al., SIGCOMM'19), as run in §3.5 of the paper.
//
// Wehe replays a recorded application trace twice: once as-is (an operator's
// DPI can classify it) and once with the payload randomized (classification
// impossible). A consistent throughput gap between the two exposes
// differentiation. Our model carries the classifiability in the packets'
// dscp marker; the DscpPolicer below is the shaping middlebox a
// discriminating operator would deploy (none exists on the Starlink path —
// the paper found no TD either).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/host.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::mbox {

/// Well-known content markers for the replayed services.
enum class ContentMarker : std::uint8_t {
  kNone = 0,
  kVideoStreaming = 10,  ///< e.g. Netflix/YouTube replays
  kVideoCall = 20,       ///< e.g. Zoom/Skype replays
};

/// Token-bucket policer that throttles classified traffic: the middlebox a
/// discriminating operator installs. Attach to a link as its loss model.
class DscpPolicer final : public sim::LossModel {
 public:
  struct Config {
    std::uint8_t match_dscp = 10;
    DataRate limit = DataRate::mbps(4);
    std::size_t bucket_bytes = 64 * 1024;
  };

  explicit DscpPolicer(Config config)
      : config_{config}, tokens_{static_cast<double>(config.bucket_bytes)} {}

  [[nodiscard]] bool should_drop(TimePoint now, const sim::Packet& pkt) override;

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  Config config_;
  double tokens_;
  TimePoint last_refill_;
  std::uint64_t dropped_ = 0;
};

/// Server side: streams a paced trace toward whoever asks. The request's
/// dscp chooses the marker of the returned traffic (original replay carries
/// the content marker; the randomized replay carries none).
class WeheServer {
 public:
  struct Config {
    std::uint16_t port = 9090;
    DataRate trace_rate = DataRate::mbps(8);  ///< video-like replay bitrate
    Duration trace_duration = Duration::seconds(8);
    std::uint32_t packet_bytes = 1250;
  };

  WeheServer(sim::Host& host, Config config);
  explicit WeheServer(sim::Host& host) : WeheServer(host, Config{}) {}

 private:
  /// One paced replay; the server owns it, so its timer's callback needs
  /// only a reference back (no self-owning closure).
  struct Stream {
    explicit Stream(sim::Simulator& sim) : timer{sim} {}
    sim::Timer timer;
    sim::Ipv4Addr dst = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t dscp = 0;
    int remaining = 0;
  };

  void stream(sim::Ipv4Addr dst, std::uint16_t dst_port, std::uint8_t dscp);
  void send_next(Stream& s);

  sim::Host* host_;
  Config config_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

/// Client side: runs `repetitions` paired replays and reports.
class WeheClient {
 public:
  struct Config {
    sim::Ipv4Addr server = 0;
    std::uint16_t server_port = 9090;
    ContentMarker marker = ContentMarker::kVideoStreaming;
    int repetitions = 10;  ///< the paper launched the full suite 10 times
    Duration replay_duration = Duration::seconds(8);
    Duration gap = Duration::seconds(1);
    /// Relative throughput difference flagged as differentiation.
    double detection_threshold = 0.10;
  };

  struct Report {
    std::vector<double> original_mbps;
    std::vector<double> randomized_mbps;
    double mean_original_mbps = 0.0;
    double mean_randomized_mbps = 0.0;
    bool differentiation_detected = false;
  };

  WeheClient(sim::Host& host, Config config);
  ~WeheClient();

  void start();
  std::function<void(const Report&)> on_complete;

 private:
  void run_replay(bool original);
  void replay_done();

  sim::Host* host_;
  Config config_;
  Report report_;
  std::uint16_t local_port_ = 0;
  std::uint64_t received_bytes_ = 0;
  int replays_done_ = 0;
  sim::Timer timer_;
};

}  // namespace slp::mbox
