#include "apps/speedtest.hpp"

#include "obs/json.hpp"

namespace slp::apps {

namespace {
// "Unlimited" supply for the duration of any test.
constexpr std::uint64_t kFloodBytes = 4ull * 1000 * 1000 * 1000;
}  // namespace

SpeedtestServer::SpeedtestServer(tcp::TcpStack& stack, std::uint16_t download_port,
                                 std::uint16_t upload_port) {
  tcp::TcpConfig server_tcp;
  // Test servers are tuned: big receive buffers from the start.
  server_tcp.initial_rcv_buffer = 1 * 1024 * 1024;
  server_tcp.max_rcv_buffer = 16 * 1024 * 1024;
  stack.listen(download_port, [](tcp::TcpConnection& c) {
    c.on_data = [&c](std::uint64_t) {
      // Any request byte triggers the flood, once.
      if (c.stats().bytes_acked == 0 && c.bytes_unsent() == 0) c.send(kFloodBytes);
    };
  }, server_tcp);
  stack.listen(upload_port, [this](tcp::TcpConnection& c) {
    c.on_data = [this](std::uint64_t n) { bytes_absorbed_ += n; };
  }, server_tcp);
}

Speedtest::Speedtest(tcp::TcpStack& stack, Config config)
    : stack_{&stack}, config_{config}, window_timer_{stack.sim()}, end_timer_{stack.sim()} {}

void Speedtest::start() {
  start_ = stack_->sim().now();
  const std::uint16_t port = config_.download ? config_.download_port : config_.upload_port;
  for (int i = 0; i < config_.connections; ++i) {
    tcp::TcpConnection& conn = stack_->connect(config_.server, port, config_.tcp);
    conns_.push_back(&conn);
    if (config_.download) {
      conn.on_established = [&conn, this] {
        ++established_;
        conn.send(64);  // the "GET"
      };
      conn.on_data = [this](std::uint64_t n) { bytes_total_ += n; };
    } else {
      conn.on_established = [&conn, this] {
        ++established_;
        conn.send(kFloodBytes);
      };
    }
  }

  window_timer_.arm(config_.ramp_exclusion, [this] {
    window_start_ = stack_->sim().now();
    bytes_before_window_ = measured_bytes_now();
  });
  end_timer_.arm(config_.duration, [this] { finish(); });
}

std::uint64_t Speedtest::measured_bytes_now() const {
  if (config_.download) return bytes_total_;
  std::uint64_t acked = 0;
  for (const tcp::TcpConnection* conn : conns_) acked += conn->stats().bytes_acked;
  return acked;
}

void Speedtest::finish() {
  Result result;
  result.window = stack_->sim().now() - window_start_;
  result.bytes_measured = measured_bytes_now() - bytes_before_window_;
  result.goodput = rate_of(result.bytes_measured, result.window);
  result.connections_established = established_;
  if (auto* rec = stack_->sim().obs(); rec != nullptr && rec->trace().enabled()) {
    const char* dir = config_.download ? "down" : "up";
    rec->trace().span("apps.speedtest", std::string{"ramp."} + dir, start_, window_start_);
    rec->trace().span(
        "apps.speedtest", std::string{"window."} + dir, window_start_, stack_->sim().now(),
        "{\"mbps\":" + obs::json_number(result.goodput.to_mbps()) +
            ",\"conns\":" + std::to_string(result.connections_established) + "}");
  }
  for (tcp::TcpConnection* conn : conns_) conn->abort();
  conns_.clear();
  if (on_complete) on_complete(result);
}

}  // namespace slp::apps
