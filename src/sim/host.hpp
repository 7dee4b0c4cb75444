// host.hpp — end hosts: transport demultiplexing and the socket-ish API the
// transport stacks (tcp::, quic::) and apps build upon.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/node.hpp"
#include "sim/packet.hpp"

namespace slp::sim {

/// An end host with one uplink interface.
///
/// Transports register per-(protocol, port) handlers; the host answers pings
/// by itself (every node in the paper's measurement universe — anchors,
/// servers — answers ICMP echo), and fans ICMP errors out to registered
/// error listeners (traceroute, Tracebox, TCP RTO-on-unreachable, ...).
class Host : public Node {
 public:
  using PacketHandler = std::function<void(const Packet&)>;

  Host(Simulator& sim, std::string name, Ipv4Addr addr);

  [[nodiscard]] Ipv4Addr addr() const { return addr_; }
  [[nodiscard]] Interface& uplink() const { return interface(0); }

  // -- sending ---------------------------------------------------------

  /// Fills in src address/uid/checksum/timestamp and transmits via the
  /// uplink. `pkt.dst` must be set.
  void send(Packet pkt);

  /// Allocates a fresh ephemeral port (49152...).
  [[nodiscard]] std::uint16_t ephemeral_port();

  // -- receiving -------------------------------------------------------

  /// Registers `handler` for (proto, local port). Overwrites silently.
  void bind(Protocol proto, std::uint16_t port, PacketHandler handler);
  void unbind(Protocol proto, std::uint16_t port);

  /// Registers a listener for ICMP echo replies with the given id.
  void bind_echo_reply(std::uint16_t icmp_id, PacketHandler handler);
  void unbind_echo_reply(std::uint16_t icmp_id);

  /// ICMP errors (time-exceeded, unreachable) are delivered to every error
  /// listener; listeners filter by the quoted packet. Returns listener id.
  std::uint64_t add_error_listener(PacketHandler handler);
  void remove_error_listener(std::uint64_t id);

  void handle_packet(Packet&& pkt, Interface& in) override;

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t unclaimed = 0;  ///< delivered but no handler matched
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void deliver_icmp(const Packet& pkt);

  Ipv4Addr addr_;
  /// Looked up for every delivered packet; never iterated.
  std::unordered_map<ProtoPort, PacketHandler, ProtoPortHash> handlers_;
  std::map<std::uint16_t, PacketHandler> echo_reply_handlers_;
  std::map<std::uint64_t, PacketHandler> error_listeners_;
  std::uint64_t next_listener_id_ = 1;
  std::uint16_t next_ephemeral_ = 49152;
  Stats stats_;
};

}  // namespace slp::sim
