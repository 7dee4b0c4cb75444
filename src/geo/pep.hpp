// pep.hpp — a transparent TCP Performance Enhancing Proxy (RFC 3135).
//
// SatCom operators deploy split-connection PEPs at the gateway to hide the
// ~600 ms GEO RTT from TCP dynamics (§1 and §3.5 of the paper). This node
// sits on-path and:
//   * terminates client TCP connections locally, answering the SYN with a
//     spoofed SYN/ACK *as if it were the server* — which is precisely the
//     behaviour Tracebox uses to detect a PEP (the handshake completes
//     before the destination network);
//   * opens its own TCP connection to the real server, impersonating the
//     client (it is on-path, so return traffic flows back through it);
//   * relays bytes between the legs, using aggressive TCP parameters on the
//     satellite leg (large IW, large buffers) — the whole point of a PEP;
//   * forwards everything that is not TCP untouched. QUIC is encrypted UDP:
//     the PEP cannot split it, reproducing the paper's motivation for
//     measuring with QUIC.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "obs/registry.hpp"
#include "sim/node.hpp"
#include "tcp/tcp.hpp"

namespace slp::geo {

class Pep : public sim::Node {
 public:
  /// The relay has no buffer cap of its own; TCP receive windows give the
  /// backpressure. Downstream, the server leg reads manually and releases
  /// bytes only once the client leg has acked them, so its receive window
  /// (net_leg's buffers) caps what the relay holds. Upstream, the slow
  /// satellite leg feeds the fast server leg, whose send queue takes the
  /// bytes straight away.
  struct Config {
    /// Satellite-leg TCP: tuned for the long fat pipe.
    tcp::TcpConfig sat_leg;
    /// Server-leg TCP: standard.
    tcp::TcpConfig net_leg;
    bool enabled = true;  ///< false = pure wire (ablation)

    Config() {
      // PEPs disable slow-start conservatism on the satellite leg: the
      // operator knows the shaped plan rate, so the proxy opens with a
      // large window and lets HyStart settle it near the BDP.
      sat_leg.initial_window_segments = 120;
      sat_leg.initial_rcv_buffer = 2 * 1024 * 1024;
      sat_leg.max_rcv_buffer = 32 * 1024 * 1024;
      sat_leg.max_burst_segments = 20;
      // Server leg: sized to keep the satellite leg's BDP fed, no more —
      // together with manual-read backpressure this stops fast servers from
      // flooding the relay far above the satellite drain rate.
      net_leg.initial_rcv_buffer = 8 * 1024 * 1024;
      net_leg.max_rcv_buffer = 32 * 1024 * 1024;
    }
  };

  Pep(sim::Simulator& sim, std::string name, Config config);

  /// Interface toward the satellite/access side.
  [[nodiscard]] sim::Interface& sat_side() const { return interface(0); }
  /// Interface toward the terrestrial internet.
  [[nodiscard]] sim::Interface& net_side() const { return interface(1); }

  void handle_packet(sim::Packet&& pkt, sim::Interface& in) override;

  struct Stats {
    std::uint64_t flows_split = 0;
    std::uint64_t bytes_relayed_up = 0;    ///< client -> server
    std::uint64_t bytes_relayed_down = 0;  ///< server -> client
    std::uint64_t forwarded_non_tcp = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Visits every split flow (testing/diagnostics).
  void visit_flows(const std::function<void(const tcp::TcpConnection& client_leg,
                                            const tcp::TcpConnection& server_leg)>& fn) const {
    for (const auto& [key, flow] : flows_) {
      (void)key;
      if (flow.client_leg != nullptr && flow.server_leg != nullptr) {
        fn(*flow.client_leg, *flow.server_leg);
      }
    }
  }

 private:
  struct Flow {
    tcp::TcpConnection* client_leg = nullptr;  ///< we impersonate the server
    tcp::TcpConnection* server_leg = nullptr;  ///< we impersonate the client
    std::uint64_t up_buffered = 0;
    std::uint64_t down_buffered = 0;
    bool client_closed = false;
    bool server_closed = false;
    /// Provenance only: (arrival instant, bytes) of downstream relay data,
    /// drained as the client leg acks — FIFO residency = split-processing
    /// time the PEP added to each byte's journey.
    std::deque<std::pair<TimePoint, std::uint64_t>> down_fifo;
  };
  struct FlowKey {
    sim::Ipv4Addr client_addr;
    std::uint16_t client_port;
    sim::Ipv4Addr server_addr;
    std::uint16_t server_port;
    auto operator<=>(const FlowKey&) const = default;
  };

  void intercept_syn(const sim::Packet& pkt);

  Config config_;
  obs::Counter obs_splits_;
  /// Stack facing the client (transmits out of sat_side).
  std::unique_ptr<tcp::TcpStack> sat_stack_;
  /// Stack facing the server (transmits out of net_side).
  std::unique_ptr<tcp::TcpStack> net_stack_;
  std::map<FlowKey, Flow> flows_;
  Stats stats_;
};

}  // namespace slp::geo
