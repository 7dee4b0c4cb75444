#include "mbox/wehe.hpp"

#include <algorithm>
#include <cmath>

namespace slp::mbox {

// ----------------------------------------------------------- DscpPolicer

bool DscpPolicer::should_drop(TimePoint now, const sim::Packet& pkt) {
  if (pkt.dscp != config_.match_dscp) return false;
  // Refill the bucket for the elapsed interval.
  const double elapsed_s = (now - last_refill_).to_seconds();
  last_refill_ = now;
  tokens_ = std::min(static_cast<double>(config_.bucket_bytes),
                     tokens_ + elapsed_s * config_.limit.bits_per_second() / 8.0);
  if (tokens_ >= pkt.size_bytes) {
    tokens_ -= pkt.size_bytes;
    return false;
  }
  dropped_++;
  return true;
}

// ----------------------------------------------------------- WeheServer

WeheServer::WeheServer(sim::Host& host, Config config) : host_{&host}, config_{config} {
  host.bind(sim::Protocol::kUdp, config_.port, [this](const sim::Packet& request) {
    stream(request.src, request.src_port, request.dscp);
  });
}

void WeheServer::stream(sim::Ipv4Addr dst, std::uint16_t dst_port, std::uint8_t dscp) {
  auto s = std::make_unique<Stream>(host_->sim());
  s->dst = dst;
  s->dst_port = dst_port;
  s->dscp = dscp;
  s->remaining = static_cast<int>(
      config_.trace_duration / config_.trace_rate.transmission_time(config_.packet_bytes));
  Stream& ref = *s;
  streams_.push_back(std::move(s));
  send_next(ref);
}

void WeheServer::send_next(Stream& s) {
  if (--s.remaining < 0) return;
  sim::Packet pkt;
  pkt.dst = s.dst;
  pkt.dst_port = s.dst_port;
  pkt.src_port = config_.port;
  pkt.proto = sim::Protocol::kUdp;
  pkt.size_bytes = config_.packet_bytes;
  pkt.dscp = s.dscp;
  host_->send(std::move(pkt));
  if (s.remaining > 0) {
    s.timer.arm(config_.trace_rate.transmission_time(config_.packet_bytes),
                [this, &s] { send_next(s); });
  }
}

// ----------------------------------------------------------- WeheClient

WeheClient::WeheClient(sim::Host& host, Config config)
    : host_{&host}, config_{config}, timer_{host.sim()} {
  local_port_ = host.ephemeral_port();
}

WeheClient::~WeheClient() { host_->unbind(sim::Protocol::kUdp, local_port_); }

void WeheClient::start() {
  host_->bind(sim::Protocol::kUdp, local_port_,
              [this](const sim::Packet& pkt) { received_bytes_ += pkt.size_bytes; });
  run_replay(/*original=*/true);
}

void WeheClient::run_replay(bool original) {
  received_bytes_ = 0;
  sim::Packet request;
  request.dst = config_.server;
  request.dst_port = config_.server_port;
  request.src_port = local_port_;
  request.proto = sim::Protocol::kUdp;
  request.size_bytes = 100;
  request.dscp = original ? static_cast<std::uint8_t>(config_.marker)
                          : static_cast<std::uint8_t>(ContentMarker::kNone);
  host_->send(std::move(request));

  // Measure for the replay duration plus slack for the last packets.
  timer_.arm(config_.replay_duration + Duration::seconds(1), [this] { replay_done(); });
}

void WeheClient::replay_done() {
  const double mbps =
      received_bytes_ * 8.0 / config_.replay_duration.to_seconds() / 1e6;
  const bool was_original = replays_done_ % 2 == 0;
  (was_original ? report_.original_mbps : report_.randomized_mbps).push_back(mbps);
  ++replays_done_;

  if (replays_done_ >= 2 * config_.repetitions) {
    auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    report_.mean_original_mbps = mean(report_.original_mbps);
    report_.mean_randomized_mbps = mean(report_.randomized_mbps);
    const double larger =
        std::max(report_.mean_original_mbps, report_.mean_randomized_mbps);
    if (larger > 0.0) {
      const double diff =
          std::abs(report_.mean_original_mbps - report_.mean_randomized_mbps) / larger;
      report_.differentiation_detected = diff > config_.detection_threshold;
    }
    if (on_complete) on_complete(report_);
    return;
  }
  timer_.arm(config_.gap, [this] {
    run_replay(/*original=*/replays_done_ % 2 == 0);
  });
}

}  // namespace slp::mbox
