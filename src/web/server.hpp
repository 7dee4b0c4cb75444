// server.hpp — the web-serving side of the QoE experiments.
//
// One WebServer stands in for every origin of a page: origin k is the TCP
// listener on port `base_port + k`. Each connection runs a miniature
// HTTPS-like state machine:
//
//   TCP handshake -> TLS (two round trips: ClientHello/ServerHello, then
//   Finished/NewSessionTicket — TLS 1.2 era, which dominated the paper's
//   late-2021 measurement window) -> request/response cycles with a think
//   time per request.
//
// Responses are synthetic byte counts. What the server sends for each
// request is fixed by a per-connection *plan* the browser queues before
// connecting (the model equivalent of "the URLs name the objects"): plans
// are matched to accepted connections in per-origin FIFO order, which is
// exact as long as one WebServer serves one client access (the campaign
// gives each access its own server, like the paper's disjoint vantage PCs).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "tcp/tcp.hpp"
#include "util/rng.hpp"

namespace slp::web {

class WebServer {
 public:
  struct Config {
    std::uint16_t base_port = 4430;
    int num_origins = 40;
    std::uint32_t tls_client_hello_bytes = 350;
    std::uint32_t tls_server_flight_bytes = 3'800;  ///< cert chain etc.
    std::uint32_t tls_finished_bytes = 300;
    std::uint32_t tls_ticket_bytes = 250;
    std::uint32_t request_bytes = 420;
    std::uint32_t response_header_bytes = 450;
    /// Server think time per request: lognormal, median ~60 ms (includes
    /// CDN/miss mix and response generation).
    double think_mu = -2.81;  // ln(0.060)
    double think_sigma = 0.55;
    tcp::TcpConfig tcp;
  };

  WebServer(tcp::TcpStack& stack, Config config, Rng rng);
  WebServer(tcp::TcpStack& stack, Rng rng) : WebServer(stack, Config{}, rng) {}

  /// Queues the ordered response-body sizes for the *next* connection that
  /// will be accepted on `origin`. Call immediately before connecting.
  void queue_plan(int origin, std::vector<std::uint64_t> body_sizes);

  /// Drops any unconsumed plans (e.g. an aborted visit).
  void clear_plans();

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  enum class TlsState { kAwaitHello, kAwaitFinished, kEstablished };

  struct ConnState {
    TlsState tls = TlsState::kAwaitHello;
    std::uint64_t buffered = 0;  ///< request bytes not yet consumed
    std::deque<std::uint64_t> plan;
    std::unique_ptr<sim::Timer> think_timer;
  };

  void on_data(tcp::TcpConnection& conn, ConnState& state, std::uint64_t n);

  tcp::TcpStack* stack_;
  Config config_;
  Rng rng_;
  std::map<int, std::deque<std::vector<std::uint64_t>>> pending_plans_;
};

}  // namespace slp::web
