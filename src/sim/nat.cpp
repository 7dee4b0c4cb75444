#include "sim/nat.hpp"

#include <cassert>

#include "util/log.hpp"

namespace slp::sim {

Nat::Nat(Simulator& sim, std::string name, Ipv4Addr inside_addr, Ipv4Addr external_addr)
    : Node(sim, std::move(name)), external_addr_{external_addr} {
  add_interface(inside_addr);   // index 0: LAN side
  add_interface(external_addr); // index 1: WAN side
}

std::uint16_t Nat::flow_port(const Packet& pkt, bool src_side) {
  if (pkt.proto == Protocol::kIcmp && pkt.icmp) return pkt.icmp->id;
  return src_side ? pkt.src_port : pkt.dst_port;
}

void Nat::send_time_exceeded(const Packet& offender, Ipv4Addr reporter, Interface& out) {
  stats_.ttl_expired++;
  Packet err = make_time_exceeded(reporter, offender);
  err.uid = sim().next_packet_uid();
  out.send(std::move(err));
}

void Nat::handle_outbound(Packet&& pkt) {
  if (pkt.ttl <= 1) {
    // Report with the LAN address: this is exactly the 192.168.1.1 /
    // 100.64.0.1 hop the paper's traceroute surfaces.
    send_time_exceeded(pkt, inside().addr(), inside());
    return;
  }
  pkt.ttl--;

  const FlowKey key{pkt.proto, pkt.src, flow_port(pkt, /*src_side=*/true)};
  auto it = by_inside_.find(key);
  if (it == by_inside_.end()) {
    const std::uint16_t ext = next_external_port_++;
    it = by_inside_.emplace(key, ext).first;
    by_external_[{pkt.proto, ext}] = key;
  }
  const std::uint16_t ext_port = it->second;

  pkt.src = external_addr_;
  if (pkt.proto == Protocol::kIcmp && pkt.icmp) {
    pkt.icmp->id = ext_port;
  } else {
    pkt.src_port = ext_port;
  }
  refresh_checksum(pkt);
  stats_.translated_out++;
  outside().send(std::move(pkt));
}

void Nat::handle_inbound(Packet&& pkt) {
  if (pkt.ttl <= 1) {
    send_time_exceeded(pkt, outside().addr(), outside());
    return;
  }
  pkt.ttl--;

  // ICMP errors: translate using the *quoted* packet, which carries our
  // external address/port as its source.
  if (pkt.proto == Protocol::kIcmp && pkt.icmp &&
      (pkt.icmp->type == IcmpType::kTimeExceeded ||
       pkt.icmp->type == IcmpType::kDestUnreachable)) {
    if (!pkt.icmp->quoted) {
      stats_.dropped_no_mapping++;
      return;
    }
    const Packet& quoted = *pkt.icmp->quoted;
    const auto it = by_external_.find({quoted.proto, flow_port(quoted, /*src_side=*/true)});
    if (it == by_external_.end()) {
      stats_.dropped_no_mapping++;
      return;
    }
    const FlowKey& inside_key = it->second;
    pkt.dst = inside_key.addr;
    // Restore the quoted header so the end host can match its probe — but
    // deliberately keep the checksum as rewritten on the outside: this is
    // the alteration Tracebox observes ("only the TCP and UDP checksums are
    // altered by the NATs").
    auto restored = std::make_shared<Packet>(quoted);
    restored->src = inside_key.addr;
    if (restored->proto == Protocol::kIcmp && restored->icmp) {
      restored->icmp->id = inside_key.port;
    } else {
      restored->src_port = inside_key.port;
    }
    pkt.icmp->quoted = std::move(restored);
    stats_.icmp_errors_translated++;
    inside().send(std::move(pkt));
    return;
  }

  const auto it = by_external_.find({pkt.proto, flow_port(pkt, /*src_side=*/false)});
  if (it == by_external_.end()) {
    stats_.dropped_no_mapping++;
    SLP_LOG(kDebug, "nat", name() << " no mapping for inbound " << to_string(pkt));
    return;
  }
  const FlowKey& inside_key = it->second;
  pkt.dst = inside_key.addr;
  if (pkt.proto == Protocol::kIcmp && pkt.icmp) {
    pkt.icmp->id = inside_key.port;
  } else {
    pkt.dst_port = inside_key.port;
  }
  refresh_checksum(pkt);
  stats_.translated_in++;
  inside().send(std::move(pkt));
}

void Nat::handle_packet(Packet&& pkt, Interface& in) {
  // Pings addressed to the NAT itself (e.g. pinging the CPE at 192.168.1.1).
  // Note that inbound *data* addressed to the external address is NOT local
  // traffic — every translated inbound packet targets that address.
  const bool echo_request =
      pkt.proto == Protocol::kIcmp && pkt.icmp && pkt.icmp->type == IcmpType::kEchoRequest;
  const bool to_us = pkt.dst == inside().addr() || pkt.dst == outside().addr();
  if (echo_request && to_us) {
    Packet reply = make_echo_reply(pkt);
    reply.src = pkt.dst;
    refresh_checksum(reply);
    reply.uid = sim().next_packet_uid();
    (&in == &inside() ? inside() : outside()).send(std::move(reply));
    return;
  }
  if (&in == &inside()) {
    handle_outbound(std::move(pkt));
  } else {
    handle_inbound(std::move(pkt));
  }
}

}  // namespace slp::sim
