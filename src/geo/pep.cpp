#include "geo/pep.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace slp::geo {

Pep::Pep(sim::Simulator& sim, std::string name, Config config)
    : Node(sim, std::move(name)), config_{config} {
  // Interface addresses are internal only: the PEP is transparent (no TTL
  // decrement, no ICMP) and never appears as a traceroute hop.
  add_interface(sim::make_addr(10, 255, 0, 1));
  add_interface(sim::make_addr(10, 255, 0, 2));
  sat_stack_ = std::make_unique<tcp::TcpStack>(
      sim, [this](sim::Packet pkt) { sat_side().send(std::move(pkt)); });
  net_stack_ = std::make_unique<tcp::TcpStack>(
      sim, [this](sim::Packet pkt) { net_side().send(std::move(pkt)); });
  if (auto* rec = sim.obs(); rec != nullptr && rec->options().metrics) {
    obs_splits_ = rec->registry().counter("geo.pep.flows_split");
  }
}

void Pep::intercept_syn(const sim::Packet& pkt) {
  const FlowKey key{pkt.src, pkt.src_port, pkt.dst, pkt.dst_port};
  if (flows_.contains(key)) return;  // duplicate SYN: leg handles retransmit

  Flow& flow = flows_[key];
  stats_.flows_split++;
  obs_splits_.add();
  if (auto* rec = sim().obs(); rec != nullptr && rec->trace().enabled()) {
    rec->trace().instant("geo.pep", "split", sim().now(),
                         "{\"client_port\":" + std::to_string(pkt.src_port) +
                             ",\"server_port\":" + std::to_string(pkt.dst_port) + "}");
  }

  // Client leg: impersonate the server.
  flow.client_leg =
      &sat_stack_->accept_spoofed(pkt.dst, pkt.dst_port, pkt.src, pkt.src_port, config_.sat_leg);
  // Server leg: impersonate the client.
  flow.server_leg =
      &net_stack_->connect_spoofed(pkt.src, pkt.src_port, pkt.dst, pkt.dst_port, config_.net_leg);

  tcp::TcpConnection* client_leg = flow.client_leg;
  tcp::TcpConnection* server_leg = flow.server_leg;

  // Relay plumbing. Byte counts only: the data is synthetic. The server leg
  // uses manual reads: bytes stay "unread" (closing its receive window)
  // until the client leg has acked them downstream — real split-TCP relay
  // backpressure.
  server_leg->set_manual_read(true);
  client_leg->on_data = [this, server_leg](std::uint64_t n) {
    stats_.bytes_relayed_up += n;
    server_leg->send(n);
  };
  // Latency provenance: downstream bytes enter the relay FIFO when the
  // server leg delivers them and leave when the client leg acks them — that
  // residency is the split-processing component the PEP adds.
  Flow* flow_state = &flow;  // std::map nodes are address-stable
  const bool provenance = sim().provenance();
  server_leg->on_data = [this, client_leg, flow_state, provenance](std::uint64_t n) {
    stats_.bytes_relayed_down += n;
    if (provenance) flow_state->down_fifo.emplace_back(sim().now(), n);
    client_leg->send(n);
  };
  client_leg->on_bytes_acked = [this, server_leg, client_leg, flow_state,
                                provenance](std::uint64_t n) {
    if (provenance) {
      obs::Recorder* rec = sim().obs();
      std::uint64_t left = n;
      while (left > 0 && !flow_state->down_fifo.empty()) {
        auto& [arrived, bytes] = flow_state->down_fifo.front();
        const std::uint64_t take = std::min(bytes, left);
        if (rec != nullptr) {
          rec->record_component(client_leg->flow_id(), obs::kPepProc,
                                (sim().now() - arrived).ns());
        }
        bytes -= take;
        left -= take;
        if (bytes == 0) flow_state->down_fifo.pop_front();
      }
    }
    server_leg->consume(n);
  };
  client_leg->on_closed = [server_leg] { server_leg->close(); };
  server_leg->on_closed = [client_leg] { client_leg->close(); };
  client_leg->on_error = [server_leg] { server_leg->abort(); };
  server_leg->on_error = [client_leg] { client_leg->abort(); };
}

void Pep::handle_packet(sim::Packet&& pkt, sim::Interface& in) {
  const bool from_sat = &in == &sat_side();
  sim::Interface& out = from_sat ? net_side() : sat_side();

  if (!config_.enabled || pkt.proto != sim::Protocol::kTcp || !pkt.tcp) {
    // Transparent wire for non-TCP (QUIC/UDP, ICMP) and when disabled.
    stats_.forwarded_non_tcp++;
    out.send(std::move(pkt));
    return;
  }

  if (from_sat) {
    if (pkt.tcp->syn && !pkt.tcp->ack_flag) intercept_syn(pkt);
    if (sat_stack_->deliver(pkt)) return;
  } else {
    if (net_stack_->deliver(pkt)) return;
  }
  // TCP traffic that belongs to no split flow (e.g. a server-initiated
  // connection) passes through untouched.
  out.send(std::move(pkt));
}

}  // namespace slp::geo
