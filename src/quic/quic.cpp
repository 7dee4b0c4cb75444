#include "quic/quic.hpp"

#include <algorithm>
#include <cassert>

#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "sim/provenance.hpp"
#include "util/log.hpp"

namespace slp::quic {

namespace {
constexpr std::uint32_t kHandshakeBytes = 1200;  ///< padded Initial
}

// ===================================================================== Stack

QuicStack::QuicStack(sim::Host& host)
    : host_{&host},
      table_{&host, sim::Protocol::kUdp,
             [this](std::uint16_t port, const sim::Packet& pkt) { dispatch(port, pkt); }} {}

QuicConnection& QuicStack::connect(sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                   QuicConfig config) {
  const std::uint16_t local_port = host_->ephemeral_port();
  table_.bind(local_port);
  QuicConnection& conn =
      table_.add(*this, remote_addr, remote_port, local_port, config, /*is_client=*/true);
  conn.start_connect();
  return conn;
}

void QuicStack::listen(std::uint16_t port, std::function<void(QuicConnection&)> on_accept,
                       QuicConfig config) {
  table_.listen(port, {config, std::move(on_accept)});
}

void QuicStack::dispatch(std::uint16_t local_port, const sim::Packet& pkt) {
  if (!pkt.payload) return;
  if (QuicConnection* conn = table_.find({local_port, pkt.src, pkt.src_port})) {
    conn->on_datagram(pkt);
    return;
  }
  const auto* listener = table_.listener(local_port);
  if (listener == nullptr) return;
  QuicConnection& conn = table_.add(*this, pkt.src, pkt.src_port, local_port, listener->config,
                                    /*is_client=*/false);
  if (listener->on_accept) listener->on_accept(conn);
  conn.on_datagram(pkt);
}

// ================================================================ Connection

QuicConnection::QuicConnection(QuicStack& stack, sim::Ipv4Addr remote_addr,
                               std::uint16_t remote_port, std::uint16_t local_port,
                               QuicConfig config, bool is_client)
    : stack_{&stack},
      remote_addr_{remote_addr},
      remote_port_{remote_port},
      local_port_{local_port},
      config_{config},
      is_client_{is_client},
      peer_max_data_{config.initial_max_data},
      ack_timer_{stack.sim()},
      local_max_data_{config.initial_max_data},
      flow_window_size_{config.initial_max_data},
      last_max_data_sent_{config.initial_max_data},
      loss_timer_{stack.sim()},
      pacing_timer_{stack.sim()} {
  cc::CcConfig cc_config;
  cc_config.mss = config_.max_payload;
  cc_config.initial_window_segments = config_.initial_window_segments;
  cc_config.min_cwnd_bytes = 2ull * config_.max_payload;
  // quiche (at the paper's commit) has no HyStart: plain slow start
  // overshoots the queue, and the resulting loss + slow cubic reconvergence
  // is the single-connection penalty of §3.3.
  cc_config.hystart = false;
  cc_ = cc::make_controller(config_.algorithm, cc_config);
  flow_id_ = stack.sim().next_flow_id();
  if (auto* rec = stack.sim().obs(); rec != nullptr && rec->sampler() != nullptr) {
    cwnd_probe_id_ = rec->sampler()->add_probe(
        "quic.cwnd", [this](TimePoint) { return static_cast<double>(cc_->cwnd_bytes()); });
  }
}

QuicConnection::~QuicConnection() {
  if (cwnd_probe_id_ != 0) {
    if (auto* rec = stack_->sim().obs(); rec != nullptr && rec->sampler() != nullptr) {
      rec->sampler()->remove_probe(cwnd_probe_id_);
    }
  }
}

void QuicConnection::note_cc_event(const char* what) {
  auto* rec = stack_->sim().obs();
  if (rec == nullptr) return;
  if (rec->options().metrics) {
    rec->registry().counter(std::string{"quic.cc."} + what).add();
  }
  if (rec->trace().enabled()) {
    rec->trace().instant("quic.cc", what, stack_->sim().now(),
                         "{\"flow\":" + std::to_string(flow_id_) +
                             ",\"cwnd\":" + std::to_string(cc_->cwnd_bytes()) + "}");
  }
}

sim::Simulator& QuicConnection::sim() const { return stack_->sim(); }

void QuicConnection::start_connect() { send_handshake_packet(); }

void QuicConnection::append_chunk(Payload& p, const MsgChunk& c) {
  if (!p.extra) {
    if (p.chunks.size() < 2) {
      p.chunks.push_back(c);
      return;
    }
    p.extra = sim::PacketPool::local().make<ChunkSeg>();
  }
  ChunkSeg* seg = p.extra.as_mutable<ChunkSeg>();
  while (seg->next) seg = seg->next.as_mutable<ChunkSeg>();
  if (seg->chunks.size() == 4) {
    seg->next = sim::PacketPool::local().make<ChunkSeg>();
    seg = seg->next.as_mutable<ChunkSeg>();
  }
  seg->chunks.push_back(c);
}

void QuicConnection::send_handshake_packet() {
  sim::PayloadRef pref = sim::PacketPool::local().make<Payload>();
  Payload* payload = pref.as_mutable<Payload>();
  payload->handshake = true;
  if (any_received_) payload->ack = build_ack();
  emit(std::move(pref), kHandshakeBytes, /*tracked=*/true);
}

void QuicConnection::emit(sim::PayloadRef pref, std::uint32_t wire_bytes, bool tracked) {
  Payload* payload = pref.as_mutable<Payload>();
  payload->pn = next_pn_++;
  payload->ack_eliciting = tracked;
  stats_.packets_sent++;
  stats_.largest_pn_sent = payload->pn;
  if (tracked) {
    SentPacket sp;
    sp.sent_at = stack_->sim().now();
    sp.sent_bytes = wire_bytes;
    sp.in_flight = true;
    sp.ack_eliciting = payload->ack_eliciting;
    sp.handshake = payload->handshake;
    sp.stream_offset = payload->stream_offset;
    sp.stream_len = payload->stream_len;
    sp.chunks = payload->chunks;
    sp.extra = payload->extra;  // shares the pooled chain, no copy
    sp.max_data = payload->max_data;
    bytes_in_flight_ += wire_bytes;
    sent_.emplace_hint(sent_.end(), payload->pn, std::move(sp));
    if (hooks.on_packet_sent) hooks.on_packet_sent(payload->pn, stack_->sim().now(), wire_bytes);
  }

  sim::Packet pkt;
  pkt.dst = remote_addr_;
  pkt.src_port = local_port_;
  pkt.dst_port = remote_port_;
  pkt.proto = sim::Protocol::kUdp;
  pkt.size_bytes = wire_bytes;
  pkt.flow_id = flow_id_;
  pkt.payload = std::move(pref);
  stack_->transmit(std::move(pkt));
  if (tracked) arm_loss_timer();
}

// ------------------------------------------------------------- application

void QuicConnection::send_stream(std::uint64_t bytes) {
  stream_length_ += bytes;
  maybe_send();
}

std::uint64_t QuicConnection::send_message(std::uint64_t bytes) {
  const std::uint64_t id = next_msg_id_++;
  const TimePoint now = stack_->sim().now();
  std::uint64_t offset = 0;
  while (offset < bytes) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(config_.max_payload, bytes - offset));
    MsgChunk chunk;
    chunk.msg_id = id;
    chunk.offset = offset;
    chunk.len = len;
    chunk.last = offset + len == bytes;
    chunk.total = bytes;
    chunk.queued_at = now;
    msg_queue_.push_back(chunk);
    offset += len;
  }
  flow_bytes_sent_ += bytes;
  maybe_send();
  return id;
}

std::uint64_t QuicConnection::send_datagram(std::uint32_t bytes, std::uint64_t cookie) {
  const std::uint64_t id = next_dgram_id_++;
  MsgChunk chunk;
  chunk.msg_id = id;
  chunk.len = std::min(std::max<std::uint32_t>(bytes, 1), config_.max_payload);
  chunk.last = true;
  chunk.unreliable = true;
  chunk.total = cookie;
  chunk.queued_at = stack_->sim().now();
  // Datagrams share the message send queue (deterministic FIFO with message
  // chunks) and count toward cwnd/bytes_in_flight like any ack-eliciting
  // packet, but are NOT charged against connection flow control (RFC 9221:
  // DATAGRAM frames are not flow controlled).
  msg_queue_.push_back(chunk);
  stats_.datagrams_sent++;
  maybe_send();
  return id;
}

// ------------------------------------------------------------- send path

bool QuicConnection::has_data_to_send() const {
  if (!stream_rtx_.empty() || !msg_queue_.empty()) return true;
  return stream_next_offset_ < stream_length_ && flow_bytes_sent_ < peer_max_data_;
}

void QuicConnection::maybe_send() {
  if (!established_) return;
  int budget = config_.max_burst_packets;
  while (budget-- > 0 && has_data_to_send() &&
         bytes_in_flight_ + config_.max_payload + config_.overhead <=
             cc_->cwnd_bytes()) {
    if (config_.pacing) {
      const TimePoint now = stack_->sim().now();
      if (next_send_time_ > now) {
        if (!pacing_timer_.armed()) {
          pacing_timer_.arm(next_send_time_ - now, [this] { maybe_send(); });
        }
        return;
      }
    }
    send_one_packet();
  }
}

void QuicConnection::send_one_packet() {
  sim::PayloadRef pref = sim::PacketPool::local().make<Payload>();
  Payload* payload = pref.as_mutable<Payload>();
  std::uint32_t budget = config_.max_payload;

  // 1. Retransmit lost stream ranges first.
  if (!stream_rtx_.empty()) {
    auto& [start, end] = stream_rtx_.front();
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(budget, end - start));
    payload->stream_offset = start;
    payload->stream_len = len;
    start += len;
    if (start >= end) stream_rtx_.pop_front();
    budget -= len;
  } else if (!msg_queue_.empty()) {
    // 2. Message chunks (possibly several small ones per packet).
    while (budget > 0 && !msg_queue_.empty()) {
      MsgChunk& front = msg_queue_.front();
      if (front.len <= budget) {
        append_chunk(*payload, front);
        budget -= front.len;
        msg_queue_.pop_front();
      } else if (front.unreliable) {
        // A datagram must ride whole in one packet — never split. It waits
        // for the next packet's full budget.
        break;
      } else {
        // Split the chunk.
        MsgChunk part = front;
        part.len = budget;
        part.last = false;
        append_chunk(*payload, part);
        front.offset += budget;
        front.len -= budget;
        budget = 0;
      }
    }
  } else if (stream_next_offset_ < stream_length_ && flow_bytes_sent_ < peer_max_data_) {
    // 3. New stream data, within flow-control credit.
    const std::uint64_t credit = peer_max_data_ - flow_bytes_sent_;
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(budget, stream_length_ - stream_next_offset_), credit));
    payload->stream_offset = stream_next_offset_;
    payload->stream_len = len;
    stream_next_offset_ += len;
    flow_bytes_sent_ += len;
    budget -= len;
  }

  if (any_received_) {
    payload->ack = build_ack();
    unacked_eliciting_ = 0;
    ack_timer_.cancel();
  }
  if (last_max_data_sent_ < local_max_data_) {
    payload->max_data = local_max_data_;
    last_max_data_sent_ = local_max_data_;
  }

  const std::uint32_t used = config_.max_payload - budget;
  const std::uint32_t wire_bytes = std::max<std::uint32_t>(used, 20) + config_.overhead;
  if (config_.pacing && rtt_.srtt > Duration::zero()) {
    // Release at cwnd/srtt rate with a 1.25 burst factor.
    const double rate_Bps =
        1.25 * static_cast<double>(cc_->cwnd_bytes()) / rtt_.srtt.to_seconds();
    const Duration gap = Duration::from_seconds(wire_bytes / rate_Bps);
    const TimePoint now = stack_->sim().now();
    next_send_time_ = std::max(next_send_time_, now) + gap;
  }
  emit(std::move(pref), wire_bytes, /*tracked=*/true);
}

QuicConnection::AckFrame QuicConnection::build_ack() const {
  AckFrame ack;
  ack.largest = largest_recv_pn_;
  ack.ack_delay = stack_->sim().now() - largest_recv_at_;
  // Descending, newest ranges first, capped like a real ACK frame.
  for (auto it = recv_pn_ranges_.rbegin();
       it != recv_pn_ranges_.rend() && ack.ranges.size() < 32; ++it) {
    ack.ranges.emplace_back(it->start, it->end - 1);  // inclusive on the wire
  }
  return ack;
}

void QuicConnection::send_ack_only() {
  if (!any_received_) return;
  sim::PayloadRef pref = sim::PacketPool::local().make<Payload>();
  pref.as_mutable<Payload>()->ack = build_ack();
  unacked_eliciting_ = 0;
  ack_timer_.cancel();
  // Ack-only packets are not congestion-controlled and not tracked for loss.
  emit(std::move(pref), 30 + config_.overhead, /*tracked=*/false);
}

void QuicConnection::queue_ack_if_needed() {
  if (unacked_eliciting_ >= config_.ack_every) {
    send_ack_only();
  } else if (unacked_eliciting_ > 0 && !ack_timer_.armed()) {
    ack_timer_.arm(config_.max_ack_delay, [this] { send_ack_only(); });
  }
}

// ------------------------------------------------------------- receive path

void QuicConnection::on_datagram(const sim::Packet& pkt) {
  const Payload* payload = pkt.payload.as<Payload>();
  if (payload == nullptr) return;
  const TimePoint now = stack_->sim().now();
  stats_.packets_received++;
  if (hooks.on_packet_received) hooks.on_packet_received(payload->pn, now);

  // Receiver-side latency provenance for data-bearing packets. QUIC never
  // retransmits a packet number, so each tag covers exactly one wire
  // traversal; recovery time for lost predecessors is recorded separately
  // at the sender (on_packet_lost_internal).
  if (pkt.flow_id != 0 && (payload->stream_len > 0 || has_chunks(*payload))) {
    if (const sim::ProvenanceTag* tag = sim::prov_tag(pkt)) {
      if (obs::Recorder* rec = stack_->sim().obs()) {
        rec->record_breakdown(now.ns(), pkt.flow_id, tag->comp_ns,
                              (now - pkt.first_sent).ns());
      }
    }
  }

  // --- handshake --------------------------------------------------------
  if (payload->handshake) {
    if (!is_client_ && !established_) {
      established_ = true;
      send_handshake_packet();  // server's reply also acks implicitly below
      if (on_established) on_established();
    } else if (!is_client_ && established_) {
      // Client retransmitted its Initial (our reply was lost): resend.
      send_handshake_packet();
    } else if (is_client_ && !established_) {
      established_ = true;
      if (on_established) on_established();
    }
  }

  // --- record pn for ACK generation --------------------------------------
  any_received_ = true;
  if (payload->pn >= largest_recv_pn_) {
    largest_recv_pn_ = payload->pn;
    largest_recv_at_ = now;
  }
  recv_pn_ranges_.insert(payload->pn, payload->pn + 1);
  // Bound state: permanently-missing pns would otherwise grow the set.
  while (recv_pn_ranges_.size() > 64) recv_pn_ranges_.pop_front();

  // --- frames -------------------------------------------------------------
  if (payload->max_data > 0) {
    peer_max_data_ = std::max(peer_max_data_, payload->max_data);
  }
  if (payload->stream_len > 0) deliver_stream(payload->stream_offset, payload->stream_len);
  if (has_chunks(*payload)) deliver_chunks(*payload);
  if (payload->ack) process_ack(*payload->ack, now);

  if (payload->ack_eliciting) {
    unacked_eliciting_++;
    queue_ack_if_needed();
  }
  maybe_send();
}

void QuicConnection::deliver_stream(std::uint64_t offset, std::uint32_t len) {
  // Merge [offset, offset+len) and advance the delivered prefix.
  stream_ooo_.insert(offset, offset + len);
  const std::uint64_t new_delivered = stream_ooo_.advance(stream_delivered_);
  const std::uint64_t delta = new_delivered - stream_delivered_;
  stream_delivered_ = new_delivered;
  if (delta > 0) {
    stats_.stream_bytes_delivered = stream_delivered_;
    flow_bytes_received_ += delta;
    maybe_send_max_data();
    if (on_stream_data) on_stream_data(delta);
  }
}

void QuicConnection::deliver_chunks(const Payload& payload) {
  for_each_chunk(payload, [this](const MsgChunk& chunk) {
    if (chunk.unreliable) {
      // Datagram: no reassembly, no flow-control accounting, delivered as-is.
      stats_.datagrams_delivered++;
      if (on_dgram) on_dgram(chunk.msg_id, chunk.total, chunk.len, chunk.queued_at);
      return;
    }
    MsgReassembly& r = reassembly_[chunk.msg_id];
    if (r.done) return;
    r.total = chunk.total;
    r.queued_at = chunk.queued_at;
    // Spurious retransmissions deliver the same chunk twice; range-merge
    // dedup keeps the byte count exact.
    const std::uint64_t fresh = r.ranges.insert(chunk.offset, chunk.offset + chunk.len);
    r.received += fresh;
    flow_bytes_received_ += fresh;
    if (r.received >= r.total && r.total > 0) {
      r.done = true;
      stats_.messages_delivered++;
      maybe_send_max_data();
      if (on_message) on_message(chunk.msg_id, r.total, r.queued_at);
    }
  });
}

void QuicConnection::maybe_send_max_data() {
  // The credit window always *slides* as data is consumed (MAX_DATA is
  // cumulative); autotuning additionally *grows* the window size when the
  // peer keeps it more than half full (quiche-style).
  const std::uint64_t remaining =
      local_max_data_ > flow_bytes_received_ ? local_max_data_ - flow_bytes_received_ : 0;
  if (remaining < flow_window_size_ / 2) {
    if (config_.autotune_flow_control) {
      flow_window_size_ =
          std::min<std::uint64_t>(config_.max_flow_window, flow_window_size_ * 2);
    }
    local_max_data_ = std::max(local_max_data_, flow_bytes_received_ + flow_window_size_);
    // The MAX_DATA frame rides in the next packet; if we are a pure receiver
    // an ack-only-ish control packet carries it. That packet is untracked:
    // if it is lost, nothing re-sends the update.
    if (bytes_in_flight_ == 0 && msg_queue_.empty() && stream_rtx_.empty() &&
        stream_next_offset_ >= stream_length_) {
      sim::PayloadRef pref = sim::PacketPool::local().make<Payload>();
      Payload* payload = pref.as_mutable<Payload>();
      payload->max_data = local_max_data_;
      last_max_data_sent_ = local_max_data_;
      if (any_received_) payload->ack = build_ack();
      emit(std::move(pref), 34 + config_.overhead, /*tracked=*/false);
    }
  }
}

// ------------------------------------------------------------- ACK / loss

void QuicConnection::process_ack(const AckFrame& ack, TimePoint now) {
  const obs::SectionTimer wall{obs::Section::kCc};
  std::uint64_t newly_acked_bytes = 0;
  bool largest_newly_acked = false;
  Duration largest_rtt = Duration::zero();

  for (const auto& [start, end] : ack.ranges) {
    auto it = sent_.lower_bound(start);
    while (it != sent_.end() && it->first <= end) {
      const std::uint64_t pn = it->first;
      SentPacket& sp = it->second;
      if (sp.in_flight) {
        assert(bytes_in_flight_ >= sp.sent_bytes);
        bytes_in_flight_ -= sp.sent_bytes;
      }
      newly_acked_bytes += sp.sent_bytes;
      stats_.packets_acked++;
      stats_.bytes_acked += sp.sent_bytes;
      stats_.stream_bytes_acked += sp.stream_len;
      if (hooks.on_packet_acked) hooks.on_packet_acked(pn, now - sp.sent_at);
      if (pn == ack.largest) {
        largest_newly_acked = true;
        largest_rtt = now - sp.sent_at;
      }
      it = sent_.erase(it);
    }
  }

  if (ack.largest > largest_acked_) largest_acked_ = ack.largest;

  if (largest_newly_acked && largest_rtt > Duration::zero()) {
    // Subtract the peer's acknowledged delay so delayed ACKs do not inflate
    // the smoothed RTT (RFC 9002 §5.3); never go below the raw minimum seen.
    Duration adjusted = largest_rtt - ack.ack_delay;
    if (adjusted < min_rtt_ && !min_rtt_.is_infinite()) adjusted = min_rtt_;
    if (adjusted <= Duration::zero()) adjusted = largest_rtt;
    update_rtt(adjusted);
  }
  if (newly_acked_bytes > 0) {
    pto_count_ = 0;
    cc_->on_ack(newly_acked_bytes, latest_rtt_, now);
    if (on_stream_acked) on_stream_acked(stats_.stream_bytes_acked);
  }

  detect_losses(now);
  arm_loss_timer();
  maybe_send();
}

void QuicConnection::update_rtt(Duration sample) {
  latest_rtt_ = sample;
  min_rtt_ = std::min(min_rtt_, sample);
  rtt_.update(sample);
}

Duration QuicConnection::base_rtt() const {
  return rtt_.srtt.is_zero() ? config_.initial_rtt : rtt_.srtt;
}

void QuicConnection::on_packet_lost_internal(std::uint64_t pn, SentPacket& sp) {
  if (sp.in_flight) {
    assert(bytes_in_flight_ >= sp.sent_bytes);
    bytes_in_flight_ -= sp.sent_bytes;
    sp.in_flight = false;
  }
  stats_.packets_lost++;
  if (hooks.on_packet_lost) hooks.on_packet_lost(pn);

  // Credit the dead air between this copy's send and its loss declaration to
  // recovery; the replacement packet gets a fresh tag for its own traversal.
  if (flow_id_ != 0 && stack_->sim().provenance()) {
    if (obs::Recorder* rec = stack_->sim().obs()) {
      rec->record_component(flow_id_, obs::kLossRecovery,
                            (stack_->sim().now() - sp.sent_at).ns());
    }
  }

  requeue_lost_content(sp, /*stream_to_front=*/false);
  if (sp.max_data > 0 && sp.max_data >= last_max_data_sent_) {
    // Ensure the window update is re-advertised.
    last_max_data_sent_ = std::min(last_max_data_sent_, sp.max_data - 1);
  }
  if (sp.handshake && !established_ && is_client_) {
    // Initial lost: resend.
    send_handshake_packet();
  }
}

void QuicConnection::requeue_lost_content(const SentPacket& sp, bool stream_to_front) {
  if (sp.stream_len > 0) {
    const std::pair range{sp.stream_offset, sp.stream_offset + sp.stream_len};
    if (stream_to_front) {
      stream_rtx_.push_front(range);
    } else {
      stream_rtx_.push_back(range);
    }
  }
  if (!has_chunks(sp)) return;
  util::SmallVector<MsgChunk, 8> all;
  for_each_chunk(sp, [this, &all](const MsgChunk& c) {
    if (c.unreliable) {
      stats_.datagrams_lost++;
      if (on_dgram_lost) on_dgram_lost(c.msg_id, c.total);
      return;
    }
    all.push_back(c);
  });
  while (!all.empty()) {
    msg_queue_.push_front(all.back());
    all.pop_back();
  }
}

void QuicConnection::detect_losses(TimePoint now) {
  const Duration rtt = std::max(base_rtt(), latest_rtt_);
  const Duration threshold =
      std::max(rtt * config_.time_threshold, config_.granularity);
  bool loss_event = false;
  TimePoint largest_lost_sent_at;

  for (auto it = sent_.begin(); it != sent_.end();) {
    const std::uint64_t pn = it->first;
    SentPacket& sp = it->second;
    if (pn >= largest_acked_) break;
    const bool pn_lost =
        largest_acked_ >= pn + static_cast<std::uint64_t>(config_.packet_threshold);
    const bool time_lost = sp.sent_at + threshold <= now;
    if (pn_lost || time_lost) {
      largest_lost_sent_at = std::max(largest_lost_sent_at, sp.sent_at);
      on_packet_lost_internal(pn, sp);
      it = sent_.erase(it);
      loss_event = true;
    } else {
      ++it;
    }
  }

  if (loss_event) {
    // RFC 9002: one congestion reaction per round trip (the lost packet must
    // have been sent after the previous recovery started). The quiche-era
    // mode reacts to every loss detection batch, which is what makes a
    // single QUIC connection "react more strongly to losses" than the
    // parallel TCP pool (§3.3).
    const Duration eager_guard = base_rtt() * (1.0 / 3.0);
    const bool react = config_.once_per_round_reduction
                           ? largest_lost_sent_at > congestion_recovery_start_
                           : now >= congestion_recovery_start_ + eager_guard;
    if (react) {
      congestion_recovery_start_ = now;
      cc_->on_congestion_event(now);
      note_cc_event("congestion");
    }
    maybe_send();
  }
}

Duration QuicConnection::pto_interval() const {
  Duration pto =
      base_rtt() + std::max(rtt_.rttvar * 4.0, config_.granularity) + config_.max_ack_delay;
  for (int i = 0; i < pto_count_; ++i) pto = pto * 2.0;
  return pto;
}

void QuicConnection::arm_loss_timer() {
  // Earliest time-threshold expiry among outstanding packets below the
  // largest acked; otherwise PTO from the most recent ack-eliciting send.
  if (sent_.empty()) {
    loss_timer_.cancel();
    return;
  }
  const Duration rtt = std::max(base_rtt(), latest_rtt_);
  const Duration threshold = std::max(rtt * config_.time_threshold, config_.granularity);

  if (stack_->sim().fast_forward()) {
    // O(1) equivalent of the reference scans below. Two invariants make it
    // exact: every `sent_` entry is ack-eliciting (`emit` tracks exactly
    // the ack-eliciting packets; ack-only and MAX_DATA control packets are
    // not), and `sent_at` is monotone in pn
    // (retransmissions always get new, larger pns). So the earliest
    // time-threshold candidate is the FIRST entry iff its pn is below the
    // largest acked, and the PTO base is the LAST entry's send time.
    const auto& first = *sent_.begin();
    if (first.first < largest_acked_) {
      loss_timer_.arm_at(std::max(first.second.sent_at + threshold, stack_->sim().now()),
                         [this] { on_loss_timer(); });
    } else {
      loss_timer_.arm_at(
          std::max(sent_.rbegin()->second.sent_at + pto_interval(), stack_->sim().now()),
          [this] { on_loss_timer(); });
    }
    return;
  }

  TimePoint earliest = TimePoint::infinite();
  for (const auto& [pn, sp] : sent_) {
    if (pn < largest_acked_) {
      earliest = std::min(earliest, sp.sent_at + threshold);
    }
  }
  if (!earliest.is_infinite()) {
    loss_timer_.arm_at(std::max(earliest, stack_->sim().now()), [this] { on_loss_timer(); });
    return;
  }
  // PTO path.
  TimePoint last_eliciting;
  for (const auto& [pn, sp] : sent_) {
    (void)pn;
    if (sp.ack_eliciting) last_eliciting = std::max(last_eliciting, sp.sent_at);
  }
  loss_timer_.arm_at(std::max(last_eliciting + pto_interval(), stack_->sim().now()),
                     [this] { on_loss_timer(); });
}

void QuicConnection::on_loss_timer() {
  const TimePoint now = stack_->sim().now();
  // Time-threshold losses first.
  const std::size_t before = stats_.packets_lost;
  detect_losses(now);
  if (stats_.packets_lost != before) {
    arm_loss_timer();
    return;
  }

  // PTO: probe by retransmitting the oldest un-acked content with a new pn.
  pto_count_++;
  stats_.ptos++;
  note_cc_event("pto");
  if (!sent_.empty()) {
    auto it = sent_.begin();
    SentPacket sp = it->second;
    const std::uint64_t pn = it->first;
    sent_.erase(it);
    if (sp.in_flight) {
      assert(bytes_in_flight_ >= sp.sent_bytes);
      bytes_in_flight_ -= sp.sent_bytes;
    }
    // Treat as lost for accounting (content re-queued, new pn assigned).
    stats_.packets_lost++;
    if (hooks.on_packet_lost) hooks.on_packet_lost(pn);
    requeue_lost_content(sp, /*stream_to_front=*/true);
    if (sp.handshake && !established_ && is_client_) {
      send_handshake_packet();
    } else if (established_) {
      send_one_packet();
    }
  }
  arm_loss_timer();
}

}  // namespace slp::quic
