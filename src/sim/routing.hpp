// routing.hpp — longest-prefix-match forwarding and the Router node.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/node.hpp"

namespace slp::sim {

/// Static longest-prefix-match table. Small networks, linear scan over
/// entries sorted by descending prefix length — simple and obviously correct.
class RouteTable {
 public:
  void add_route(Ipv4Addr prefix, int prefix_len, Interface& out);
  void add_default(Interface& out) { add_route(0, 0, out); }

  /// Longest-prefix match; nullptr if no route (not even a default).
  [[nodiscard]] Interface* lookup(Ipv4Addr dst) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Ipv4Addr prefix;
    int prefix_len;
    Interface* out;
  };
  std::vector<Entry> entries_;  // kept sorted by descending prefix_len
};

/// A plain IP router: decrements TTL, emits ICMP time-exceeded at TTL expiry
/// (traceroute support), forwards by longest-prefix match, and answers pings
/// addressed to any of its own interfaces.
class Router : public Node {
 public:
  Router(Simulator& sim, std::string name) : Node(sim, std::move(name)) {}

  [[nodiscard]] RouteTable& routes() { return routes_; }

  void handle_packet(Packet&& pkt, Interface& in) override;

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t ttl_expired = 0;
    std::uint64_t no_route = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  /// Routes a locally-generated packet (ICMP errors, echo replies).
  void send_local(Packet pkt);
  /// True if `addr` is one of this node's interface addresses.
  [[nodiscard]] bool owns_address(Ipv4Addr addr) const;

 private:
  RouteTable routes_;
  Stats stats_;
};

}  // namespace slp::sim
