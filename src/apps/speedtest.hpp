// speedtest.hpp — an Ookla-style TCP speed test (§2 "Throughput").
//
// "The application selects the closest test server and probes download and
// upload capacity by opening several parallel TCP connections." We open
// `connections` parallel TCP streams, run for `duration`, and report the
// goodput over the measurement window with the initial ramp excluded —
// which is how speedtest services discount slow start.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tcp/tcp.hpp"

namespace slp::apps {

/// Server counterpart: serves unlimited download bytes on `download_port`
/// and swallows upload bytes on `upload_port`.
class SpeedtestServer {
 public:
  SpeedtestServer(tcp::TcpStack& stack, std::uint16_t download_port = 8080,
                  std::uint16_t upload_port = 8081);

  [[nodiscard]] std::uint64_t bytes_absorbed() const { return bytes_absorbed_; }

 private:
  std::uint64_t bytes_absorbed_ = 0;
};

class Speedtest {
 public:
  struct Config {
    sim::Ipv4Addr server = 0;
    std::uint16_t download_port = 8080;
    std::uint16_t upload_port = 8081;
    int connections = 8;  ///< Ookla uses "several"; 4-16 depending on class
    Duration duration = Duration::seconds(15);
    /// Head of the test excluded from the rate computation (ramp).
    Duration ramp_exclusion = Duration::seconds(3);
    bool download = true;
    tcp::TcpConfig tcp;
  };

  struct Result {
    DataRate goodput;
    std::uint64_t bytes_measured = 0;
    Duration window = Duration::zero();
    int connections_established = 0;
  };

  Speedtest(tcp::TcpStack& stack, Config config);

  void start();
  std::function<void(const Result&)> on_complete;

 private:
  void finish();
  /// Download: bytes delivered to us. Upload: bytes the server has acked.
  [[nodiscard]] std::uint64_t measured_bytes_now() const;

  tcp::TcpStack* stack_;
  Config config_;
  std::vector<tcp::TcpConnection*> conns_;
  std::uint64_t bytes_before_window_ = 0;
  std::uint64_t bytes_total_ = 0;
  TimePoint start_;
  TimePoint window_start_;
  TimePoint test_end_;
  int established_ = 0;
  sim::Timer window_timer_;
  sim::Timer end_timer_;
};

}  // namespace slp::apps
