#include "sim/packet.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace slp::sim {

std::string addr_to_string(Ipv4Addr addr) {
  std::ostringstream os;
  os << ((addr >> 24) & 0xFF) << '.' << ((addr >> 16) & 0xFF) << '.' << ((addr >> 8) & 0xFF)
     << '.' << (addr & 0xFF);
  return os.str();
}

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kIcmp: return "ICMP";
    case Protocol::kTcp: return "TCP";
    case Protocol::kUdp: return "UDP";
  }
  return "?";
}

std::uint16_t transport_checksum(const Packet& pkt) {
  // Mix the pseudo-header fields a real TCP/UDP checksum covers.
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(pkt.src);
  mix(pkt.dst);
  mix(pkt.src_port);
  mix(pkt.dst_port);
  mix(static_cast<std::uint64_t>(pkt.proto));
  mix(pkt.size_bytes);
  if (pkt.tcp) {
    mix(pkt.tcp->seq);
    mix(pkt.tcp->ack);
    mix((pkt.tcp->syn ? 1u : 0u) | (pkt.tcp->ack_flag ? 2u : 0u) | (pkt.tcp->fin ? 4u : 0u));
  }
  return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

void refresh_checksum(Packet& pkt) { pkt.checksum = transport_checksum(pkt); }

Packet make_echo_reply(const Packet& request) {
  Packet reply;
  reply.dst = request.src;
  reply.proto = Protocol::kIcmp;
  reply.size_bytes = request.size_bytes;
  reply.icmp = IcmpHeader{IcmpType::kEchoReply, request.icmp->id, request.icmp->seq, nullptr};
  return reply;
}

namespace {

Packet make_icmp_error(IcmpType type, Ipv4Addr reporter, const Packet& offender) {
  Packet err;
  err.src = reporter;
  err.dst = offender.src;
  err.proto = Protocol::kIcmp;
  err.ttl = 64;
  // ICMP error: IP header (20) + ICMP header (8) + quoted IP header + 8 bytes.
  err.size_bytes = 56;
  IcmpHeader hdr;
  hdr.type = type;
  // The quote carries the offender's headers as seen *at this hop*, i.e.
  // after any upstream NAT rewrites — the observable Tracebox relies on.
  auto quoted = std::make_shared<Packet>(offender);
  quoted->icmp.reset();  // errors never quote nested ICMP payloads in full
  hdr.quoted = std::move(quoted);
  err.icmp = std::move(hdr);
  refresh_checksum(err);
  return err;
}

}  // namespace

Packet make_time_exceeded(Ipv4Addr reporter, const Packet& offender) {
  return make_icmp_error(IcmpType::kTimeExceeded, reporter, offender);
}

Packet make_dest_unreachable(Ipv4Addr reporter, const Packet& offender) {
  return make_icmp_error(IcmpType::kDestUnreachable, reporter, offender);
}

std::string to_string(const Packet& pkt) {
  std::ostringstream os;
  os << to_string(pkt.proto) << ' ' << addr_to_string(pkt.src) << ':' << pkt.src_port << " > "
     << addr_to_string(pkt.dst) << ':' << pkt.dst_port << " ttl=" << static_cast<int>(pkt.ttl)
     << " len=" << pkt.size_bytes;
  return os.str();
}

}  // namespace slp::sim
