#include "sim/host.hpp"

#include <cassert>

#include "sim/provenance.hpp"
#include "util/log.hpp"

namespace slp::sim {

Host::Host(Simulator& sim, std::string name, Ipv4Addr addr)
    : Node(sim, std::move(name)), addr_{addr} {
  add_interface(addr);
}

void Host::send(Packet pkt) {
  if (pkt.src == 0) pkt.src = addr_;
  if (pkt.uid == 0) pkt.uid = sim().next_packet_uid();
  if (pkt.checksum == 0) refresh_checksum(pkt);
  pkt.first_sent = sim().now();
  // Transports that pre-attach (e.g. TCP retransmissions crediting recovery
  // time) keep their tag; everything else starts its journey here.
  if (sim().provenance() && !pkt.prov) attach_provenance(pkt, sim().now());
  stats_.sent++;
  uplink().send(std::move(pkt));
}

std::uint16_t Host::ephemeral_port() {
  if (next_ephemeral_ == 0) next_ephemeral_ = 49152;  // wrapped around
  return next_ephemeral_++;
}

void Host::bind(Protocol proto, std::uint16_t port, PacketHandler handler) {
  handlers_[{proto, port}] = std::move(handler);
}

void Host::unbind(Protocol proto, std::uint16_t port) { handlers_.erase({proto, port}); }

void Host::bind_echo_reply(std::uint16_t icmp_id, PacketHandler handler) {
  echo_reply_handlers_[icmp_id] = std::move(handler);
}

void Host::unbind_echo_reply(std::uint16_t icmp_id) { echo_reply_handlers_.erase(icmp_id); }

std::uint64_t Host::add_error_listener(PacketHandler handler) {
  const std::uint64_t id = next_listener_id_++;
  error_listeners_[id] = std::move(handler);
  return id;
}

void Host::remove_error_listener(std::uint64_t id) { error_listeners_.erase(id); }

void Host::deliver_icmp(const Packet& pkt) {
  assert(pkt.icmp.has_value());
  switch (pkt.icmp->type) {
    case IcmpType::kEchoRequest: {
      Packet reply = make_echo_reply(pkt);
      // The reply continues the request's provenance journey (and flow), so
      // the tag at the pinger covers the full round trip.
      reply.flow_id = pkt.flow_id;
      reply.prov = pkt.prov;
      send(std::move(reply));
      return;
    }
    case IcmpType::kEchoReply: {
      const auto it = echo_reply_handlers_.find(pkt.icmp->id);
      if (it != echo_reply_handlers_.end()) {
        it->second(pkt);
      } else {
        stats_.unclaimed++;
      }
      return;
    }
    case IcmpType::kTimeExceeded:
    case IcmpType::kDestUnreachable: {
      if (error_listeners_.empty()) {
        stats_.unclaimed++;
        return;
      }
      // Copy the listener map: a listener may unregister itself mid-delivery.
      const auto listeners = error_listeners_;
      for (const auto& [id, fn] : listeners) {
        (void)id;
        fn(pkt);
      }
      return;
    }
  }
}

void Host::handle_packet(Packet&& pkt, Interface& in) {
  (void)in;
  if (pkt.dst != addr_) {
    SLP_LOG(kDebug, "host", name() << " dropped misdelivered " << to_string(pkt));
    return;
  }
  stats_.received++;

  if (pkt.proto == Protocol::kIcmp && pkt.icmp) {
    deliver_icmp(pkt);
    return;
  }

  const auto it = handlers_.find({pkt.proto, pkt.dst_port});
  if (it == handlers_.end()) {
    stats_.unclaimed++;
    SLP_LOG(kDebug, "host", name() << " no handler for " << to_string(pkt));
    // Closed UDP ports answer with ICMP port-unreachable — how traceroute
    // knows it reached the destination.
    if (pkt.proto == Protocol::kUdp) {
      Packet err = make_dest_unreachable(addr_, pkt);
      err.src = 0;  // let send() stamp it
      send(std::move(err));
    }
    return;
  }
  it->second(pkt);
}

}  // namespace slp::sim
