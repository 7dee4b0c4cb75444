// conn_table.hpp — the connection table both transport stacks (tcp::,
// quic::) keep: connections by key, listeners by port, and the ports bound
// on the host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "sim/host.hpp"

namespace slp::sim {

/// Demultiplexing key of a connection: its local port and the remote end.
struct ConnKey {
  std::uint16_t local_port;
  Ipv4Addr remote_addr;
  std::uint16_t remote_port;
  bool operator==(const ConnKey&) const = default;
};

struct ConnKeyHash {
  std::size_t operator()(const ConnKey& k) const noexcept {
    return (std::size_t{k.remote_addr} << 32) | (std::size_t{k.local_port} << 16) |
           k.remote_port;
  }
};

/// Owns a stack's connections (`Conn`, built with per-port `Config`s).
///
/// With a host, the first listen or connect on a port binds it to the
/// stack's dispatch function, and the table unbinds every such port when it
/// dies. Without one (a raw stack fed by its owner) nothing is bound.
template <typename Conn, typename Config>
class ConnTable {
 public:
  struct Listener {
    Config config;
    std::function<void(Conn&)> on_accept;
  };
  using Dispatch = std::function<void(std::uint16_t local_port, const Packet&)>;

  ConnTable(Host* host, Protocol proto, Dispatch dispatch)
      : host_{host}, proto_{proto}, dispatch_{std::move(dispatch)} {}
  ~ConnTable() {
    for (const std::uint16_t port : bound_ports_) host_->unbind(proto_, port);
  }

  ConnTable(const ConnTable&) = delete;
  ConnTable& operator=(const ConnTable&) = delete;

  /// Routes the host's packets for `port` to the dispatch function, once.
  void bind(std::uint16_t port) {
    if (host_ == nullptr || !bound_ports_.insert(port).second) return;
    host_->bind(proto_, port, [this, port](const Packet& pkt) { dispatch_(port, pkt); });
  }

  void listen(std::uint16_t port, Listener listener) {
    listeners_[port] = std::move(listener);
    bind(port);
  }
  [[nodiscard]] const Listener* listener(std::uint16_t port) const {
    const auto it = listeners_.find(port);
    return it == listeners_.end() ? nullptr : &it->second;
  }

  /// Builds a connection from `args` and files it under its own key,
  /// replacing any connection there.
  template <typename... Args>
  Conn& add(Args&&... args) {
    auto conn = std::unique_ptr<Conn>(new Conn(std::forward<Args>(args)...));
    Conn& ref = *conn;
    connections_[ConnKey{ref.local_port(), ref.remote_addr(), ref.remote_port()}] =
        std::move(conn);
    return ref;
  }
  [[nodiscard]] Conn* find(const ConnKey& key) const {
    const auto it = connections_.find(key);
    return it == connections_.end() ? nullptr : it->second.get();
  }
  /// Destroys every connection `pred` selects.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::erase_if(connections_, [&pred](const auto& entry) { return pred(*entry.second); });
  }
  [[nodiscard]] std::size_t size() const { return connections_.size(); }

 private:
  Host* host_;  ///< null: bind nothing
  Protocol proto_;
  Dispatch dispatch_;
  std::map<std::uint16_t, Listener> listeners_;
  /// Looked up for every packet. Only erase_if and the destructor iterate
  /// it, and their order only decides which timer slots are freed first.
  std::unordered_map<ConnKey, std::unique_ptr<Conn>, ConnKeyHash> connections_;
  std::set<std::uint16_t> bound_ports_;
};

}  // namespace slp::sim
