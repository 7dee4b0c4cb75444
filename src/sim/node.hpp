// node.hpp — nodes and interfaces of the simulated network graph.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace slp::sim {

class Node;
class Link;

/// One attachment point of a node to a link. Interfaces are owned by their
/// node and wired to exactly one link endpoint.
class Interface {
 public:
  Interface(Node& owner, Ipv4Addr addr) : owner_{&owner}, addr_{addr} {}

  Interface(const Interface&) = delete;
  Interface& operator=(const Interface&) = delete;

  [[nodiscard]] Node& owner() const { return *owner_; }
  [[nodiscard]] Ipv4Addr addr() const { return addr_; }
  [[nodiscard]] Link* link() const { return link_; }
  [[nodiscard]] bool attached() const { return link_ != nullptr; }

  /// Transmits a packet toward the other end of the attached link.
  /// Requires attached(). Takes the packet by rvalue: a forwarding node
  /// hands on the packet it was given without another move.
  void send(Packet&& pkt);

  /// The interface at the far end of the attached link, or nullptr.
  [[nodiscard]] Interface* peer() const;

 private:
  friend class Link;
  Node* owner_;
  Ipv4Addr addr_;
  Link* link_ = nullptr;
  int endpoint_ = -1;  ///< 0 = link side A, 1 = side B
};

/// Base class for everything that terminates or forwards packets.
class Node {
 public:
  Node(Simulator& sim, std::string name) : sim_{&sim}, name_{std::move(name)} {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Creates and owns a new interface with the given address.
  Interface& add_interface(Ipv4Addr addr);

  [[nodiscard]] Simulator& sim() const { return *sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t interface_count() const { return interfaces_.size(); }
  [[nodiscard]] Interface& interface(std::size_t i) const { return *interfaces_.at(i); }

  /// Delivery of a packet that arrived on `in`. The node owns `pkt` and may
  /// rewrite and forward it in place.
  virtual void handle_packet(Packet&& pkt, Interface& in) = 0;

 private:
  Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
};

}  // namespace slp::sim
