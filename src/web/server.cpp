#include "web/server.hpp"

namespace slp::web {

WebServer::WebServer(tcp::TcpStack& stack, Config config, Rng rng)
    : stack_{&stack}, config_{config}, rng_{rng} {
  for (int origin = 0; origin < config_.num_origins; ++origin) {
    const auto port = static_cast<std::uint16_t>(config_.base_port + origin);
    stack.listen(port, [this, origin](tcp::TcpConnection& conn) {
      auto state = std::make_shared<ConnState>();
      state->think_timer = std::make_unique<sim::Timer>(stack_->sim());
      auto& plans = pending_plans_[origin];
      if (!plans.empty()) {
        state->plan.assign(plans.front().begin(), plans.front().end());
        plans.pop_front();
      }
      conn.on_data = [this, &conn, state](std::uint64_t n) { on_data(conn, *state, n); };
    }, config_.tcp);
  }
}

void WebServer::queue_plan(int origin, std::vector<std::uint64_t> body_sizes) {
  pending_plans_[origin].push_back(std::move(body_sizes));
}

void WebServer::clear_plans() { pending_plans_.clear(); }

void WebServer::on_data(tcp::TcpConnection& conn, ConnState& state, std::uint64_t n) {
  state.buffered += n;
  switch (state.tls) {
    case TlsState::kAwaitHello:
      if (state.buffered >= config_.tls_client_hello_bytes) {
        state.buffered -= config_.tls_client_hello_bytes;
        state.tls = TlsState::kAwaitFinished;
        conn.send(config_.tls_server_flight_bytes);
      }
      return;
    case TlsState::kAwaitFinished:
      if (state.buffered >= config_.tls_finished_bytes) {
        state.buffered -= config_.tls_finished_bytes;
        state.tls = TlsState::kEstablished;
        conn.send(config_.tls_ticket_bytes);
      }
      return;
    case TlsState::kEstablished:
      // Requests on one connection are strictly sequential (the browser
      // sends the next only after the previous response completes), so a
      // single think timer per connection suffices.
      while (state.buffered >= config_.request_bytes && !state.plan.empty()) {
        state.buffered -= config_.request_bytes;
        const std::uint64_t body = state.plan.front();
        state.plan.pop_front();
        const Duration think =
            Duration::from_seconds(rng_.lognormal(config_.think_mu, config_.think_sigma));
        const std::uint64_t total = body + config_.response_header_bytes;
        state.think_timer->arm(think, [&conn, total] { conn.send(total); });
      }
      return;
  }
}

}  // namespace slp::web
