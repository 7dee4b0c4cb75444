#include "qoe/game.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "sim/packet_pool.hpp"
#include "sim/provenance.hpp"
#include "sim/simulator.hpp"

namespace slp::qoe {

namespace {
/// Opaque tick payload (the "encrypted" game protocol): the sequence number
/// the snapshot echoes back.
struct TickPayload {
  std::uint64_t seq = 0;
};
}  // namespace

bool LagDetector::add(double rtt_ms) {
  bool spike = config_.abs_ms > 0.0 && rtt_ms > config_.abs_ms;
  if (!spike && static_cast<int>(window_.size()) >= config_.min_samples) {
    const double med = median();
    spike = rtt_ms > med * config_.factor && rtt_ms > med + config_.floor_ms;
  }
  window_.push_back(rtt_ms);
  if (static_cast<int>(window_.size()) > config_.window) window_.pop_front();
  return spike;
}

double LagDetector::median() const {
  if (window_.empty()) return 0.0;
  scratch_.assign(window_.begin(), window_.end());
  const std::size_t mid = scratch_.size() / 2;
  std::nth_element(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch_.end());
  return scratch_[mid];
}

GameSession::GameSession(sim::Host& client, sim::Host& server, Config config)
    : client_{&client},
      server_{&server},
      config_{config},
      detector_{config.detector},
      tick_timer_{client.sim()},
      drain_timer_{client.sim()} {
  ticks_total_ = static_cast<std::uint64_t>(config_.duration.to_seconds() * config_.tick_rate);
  flow_id_ = client.sim().next_flow_id();
}

GameSession::~GameSession() {
  if (client_port_ != 0) client_->unbind(sim::Protocol::kUdp, client_port_);
  if (server_bound_) server_->unbind(sim::Protocol::kUdp, config_.server_port);
}

void GameSession::start() {
  client_port_ = client_->ephemeral_port();
  metrics_.ticks.reserve(ticks_total_);
  // Server: echo every input tick as a state snapshot, continuing the tick's
  // provenance journey so the client's tag covers the full round trip (the
  // same idiom as the ICMP echo responder).
  server_->bind(sim::Protocol::kUdp, config_.server_port, [this](const sim::Packet& pkt) {
    sim::Packet snap;
    snap.dst = pkt.src;
    snap.src_port = config_.server_port;
    snap.dst_port = pkt.src_port;
    snap.proto = sim::Protocol::kUdp;
    snap.size_bytes = config_.server_bytes;
    snap.flow_id = pkt.flow_id;
    snap.payload = pkt.payload;
    snap.prov = pkt.prov;
    server_->send(std::move(snap));
  });
  server_bound_ = true;
  client_->bind(sim::Protocol::kUdp, client_port_,
                [this](const sim::Packet& pkt) { on_snapshot(pkt); });
  tick();
}

void GameSession::tick() {
  if (next_seq_ >= ticks_total_) return;
  const std::uint64_t seq = next_seq_++;
  Tick t;
  t.sent_at = client_->sim().now();
  metrics_.ticks.push_back(t);

  sim::Packet pkt;
  pkt.dst = server_->addr();
  pkt.src_port = client_port_;
  pkt.dst_port = config_.server_port;
  pkt.proto = sim::Protocol::kUdp;
  pkt.size_bytes = config_.client_bytes;
  pkt.flow_id = flow_id_;
  pkt.payload = sim::PacketPool::local().make<TickPayload>(seq);
  client_->send(std::move(pkt));

  // Resolve ticks old enough that their snapshot is presumed gone.
  while (next_timeout_check_ + static_cast<std::uint64_t>(config_.timeout_ticks) <= seq) {
    mark_lost(next_timeout_check_++);
  }

  if (next_seq_ < ticks_total_) {
    tick_timer_.arm(Duration::from_seconds(1.0 / config_.tick_rate), [this] { tick(); });
  } else {
    // Give the last snapshots their timeout window, then close the books.
    drain_timer_.arm(
        Duration::from_seconds(config_.timeout_ticks / config_.tick_rate) + Duration::millis(50),
        [this] { finish(); });
  }
}

void GameSession::on_snapshot(const sim::Packet& pkt) {
  const TickPayload* tp = pkt.payload.as<TickPayload>();
  if (tp == nullptr || tp->seq >= metrics_.ticks.size()) return;
  Tick& t = metrics_.ticks[static_cast<std::size_t>(tp->seq)];
  if (t.lost) {
    // The snapshot straggled in past its timeout: the tick stays lost, but
    // its provenance tells *why* — a disconnected-path stall marks the
    // outage as handover-caused rather than random medium loss.
    if (t.handover_stall_ns == 0) {
      if (const sim::ProvenanceTag* tag = sim::prov_tag(pkt)) {
        t.handover_stall_ns = tag->comp_ns[obs::kHandoverStall];
      }
    }
    return;
  }
  if (t.rtt_ms > 0.0) return;  // duplicate
  t.rtt_ms = (client_->sim().now() - t.sent_at).to_millis();
  if (const sim::ProvenanceTag* tag = sim::prov_tag(pkt)) {
    t.handover_stall_ns = tag->comp_ns[obs::kHandoverStall];
    if (obs::Recorder* rec = client_->sim().obs()) {
      rec->record_breakdown(client_->sim().now().ns(), flow_id_, tag->comp_ns,
                            (client_->sim().now() - t.sent_at).ns() -
                                tag->comp_ns[obs::kLossRecovery]);
    }
  }
  if (detector_.add(t.rtt_ms)) {
    t.spike = true;
    note_spike(t);
  }
}

void GameSession::mark_lost(std::size_t seq) {
  if (seq >= metrics_.ticks.size()) return;
  Tick& t = metrics_.ticks[seq];
  if (t.lost || t.rtt_ms > 0.0) return;
  t.lost = true;
  t.spike = true;  // a missing snapshot is the worst lag there is
  metrics_.lost++;
  note_spike(t);
  obs::Recorder* rec = client_->sim().obs();
  if (rec != nullptr && rec->options().metrics) {
    rec->registry().counter("qoe.game.ticks_lost").add();
  }
}

void GameSession::note_spike(Tick&) {
  metrics_.spikes++;
  obs::Recorder* rec = client_->sim().obs();
  if (rec != nullptr && rec->options().metrics) {
    rec->registry().counter("qoe.game.spikes").add();
  }
}

void GameSession::finish() {
  if (finished_) return;
  while (next_timeout_check_ < ticks_total_) mark_lost(next_timeout_check_++);
  finished_ = true;
  tick_timer_.cancel();
  drain_timer_.cancel();
  if (on_complete) on_complete(metrics_);
}

}  // namespace slp::qoe
