// nat.hpp — network address translation.
//
// The paper's traceroute (§3.5) shows two NAT levels on the Starlink path:
// the CPE router (192.168.1.1) and a carrier-grade NAT (100.64.0.1). This
// node reproduces both roles: source rewriting with port mapping, TTL
// decrement (so it appears as a traceroute hop), ICMP error translation, and
// checksum regeneration — the one alteration Tracebox reported.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/node.hpp"
#include "sim/packet.hpp"

namespace slp::sim {

class Nat : public Node {
 public:
  /// `inside_addr` is the LAN-facing interface address (what traceroute
  /// shows); `external_addr` is the address outbound traffic is rewritten to.
  Nat(Simulator& sim, std::string name, Ipv4Addr inside_addr, Ipv4Addr external_addr);

  [[nodiscard]] Interface& inside() const { return interface(0); }
  [[nodiscard]] Interface& outside() const { return interface(1); }
  [[nodiscard]] Ipv4Addr external_addr() const { return external_addr_; }

  void handle_packet(Packet&& pkt, Interface& in) override;

  struct Stats {
    std::uint64_t translated_out = 0;
    std::uint64_t translated_in = 0;
    std::uint64_t icmp_errors_translated = 0;
    std::uint64_t dropped_no_mapping = 0;
    std::uint64_t ttl_expired = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t mapping_count() const { return by_inside_.size(); }

 private:
  struct FlowKey {
    Protocol proto;
    Ipv4Addr addr;
    std::uint16_t port;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return (std::size_t{k.addr} << 24) | (std::size_t{static_cast<std::uint8_t>(k.proto)} << 16) |
             k.port;
    }
  };

  /// The "port" a mapping keys on: transport port, or ICMP id for echo.
  [[nodiscard]] static std::uint16_t flow_port(const Packet& pkt, bool src_side);

  void handle_outbound(Packet&& pkt);
  void handle_inbound(Packet&& pkt);
  void send_time_exceeded(const Packet& offender, Ipv4Addr reporter, Interface& out);

  Ipv4Addr external_addr_;
  // Looked up for every translated packet and never iterated. Mappings
  // never expire, so a long cell keeps every flow it ever opened.
  std::unordered_map<FlowKey, std::uint16_t, FlowKeyHash> by_inside_;  ///< -> external port
  std::unordered_map<ProtoPort, FlowKey, ProtoPortHash> by_external_;
  std::uint16_t next_external_port_ = 20000;
  Stats stats_;
};

}  // namespace slp::sim
