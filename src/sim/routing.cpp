#include "sim/routing.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace slp::sim {

void RouteTable::add_route(Ipv4Addr prefix, int prefix_len, Interface& out) {
  entries_.push_back(Entry{prefix, prefix_len, &out});
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) { return a.prefix_len > b.prefix_len; });
}

Interface* RouteTable::lookup(Ipv4Addr dst) const {
  for (const Entry& e : entries_) {
    if (prefix_match(dst, e.prefix, e.prefix_len)) return e.out;
  }
  return nullptr;
}

bool Router::owns_address(Ipv4Addr addr) const {
  for (std::size_t i = 0; i < interface_count(); ++i) {
    if (interface(i).addr() == addr) return true;
  }
  return false;
}

void Router::send_local(Packet pkt) {
  Interface* out = routes_.lookup(pkt.dst);
  if (out == nullptr) {
    SLP_LOG(kDebug, "router", name() << ": no route for locally generated "
                                     << addr_to_string(pkt.dst));
    return;
  }
  if (pkt.uid == 0) pkt.uid = sim().next_packet_uid();
  out->send(std::move(pkt));
}

void Router::handle_packet(Packet&& pkt, Interface& in) {
  // Locally addressed traffic: answer pings, silently absorb the rest.
  if (owns_address(pkt.dst)) {
    if (pkt.proto == Protocol::kIcmp && pkt.icmp && pkt.icmp->type == IcmpType::kEchoRequest) {
      Packet reply = make_echo_reply(pkt);
      reply.src = pkt.dst;
      refresh_checksum(reply);
      send_local(std::move(reply));
    }
    return;
  }

  // Transit traffic: TTL check, then longest-prefix forward.
  if (pkt.ttl <= 1) {
    stats_.ttl_expired++;
    // Never answer an ICMP error with another ICMP error.
    if (!(pkt.proto == Protocol::kIcmp && pkt.icmp && pkt.icmp->type != IcmpType::kEchoRequest &&
          pkt.icmp->type != IcmpType::kEchoReply)) {
      send_local(make_time_exceeded(in.addr(), pkt));
    }
    return;
  }
  pkt.ttl--;

  Interface* out = routes_.lookup(pkt.dst);
  if (out == nullptr) {
    stats_.no_route++;
    send_local(make_dest_unreachable(in.addr(), pkt));
    return;
  }
  stats_.forwarded++;
  out->send(std::move(pkt));
}

}  // namespace slp::sim
