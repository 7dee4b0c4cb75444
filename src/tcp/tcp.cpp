#include "tcp/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "sim/provenance.hpp"
#include "util/log.hpp"

namespace slp::tcp {

std::string_view to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait: return "FIN_WAIT";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kDone: return "DONE";
  }
  return "?";
}

// ===================================================================== Stack

TcpStack::TcpStack(sim::Host& host)
    : sim_{&host.sim()},
      host_{&host},
      table_{&host, sim::Protocol::kTcp,
             [this](std::uint16_t port, const sim::Packet& pkt) { dispatch(port, pkt); }} {}

TcpStack::TcpStack(sim::Simulator& sim, std::function<void(sim::Packet)> transmit)
    : sim_{&sim}, transmit_fn_{std::move(transmit)}, table_{nullptr, sim::Protocol::kTcp, {}} {}

void TcpStack::transmit(sim::Packet pkt) {
  if (host_ != nullptr) {
    host_->send(std::move(pkt));
    return;
  }
  if (pkt.uid == 0) pkt.uid = sim_->next_packet_uid();
  sim::refresh_checksum(pkt);
  pkt.first_sent = sim_->now();
  transmit_fn_(std::move(pkt));
}

std::uint16_t TcpStack::alloc_port() {
  if (host_ != nullptr) return host_->ephemeral_port();
  if (next_raw_port_ == 0) next_raw_port_ = 49152;
  return next_raw_port_++;
}

TcpConnection& TcpStack::connect(sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                 TcpConfig config) {
  const std::uint16_t local_port = alloc_port();
  table_.bind(local_port);
  TcpConnection& conn = table_.add(*this, remote_addr, remote_port, local_port, config);
  conn.start_connect();
  return conn;
}

TcpConnection& TcpStack::connect_spoofed(sim::Ipv4Addr local_addr, std::uint16_t local_port,
                                         sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                         TcpConfig config) {
  TcpConnection& conn = accept_spoofed(local_addr, local_port, remote_addr, remote_port, config);
  conn.start_connect();
  return conn;
}

TcpConnection& TcpStack::accept_spoofed(sim::Ipv4Addr local_addr, std::uint16_t local_port,
                                        sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                        TcpConfig config) {
  return table_.add(*this, remote_addr, remote_port, local_port, config, local_addr);
}

bool TcpStack::deliver(const sim::Packet& pkt) {
  if (!pkt.tcp) return false;
  TcpConnection* conn = table_.find({pkt.dst_port, pkt.src, pkt.src_port});
  if (conn == nullptr) return false;
  conn->on_packet(pkt);
  return true;
}

void TcpStack::listen(std::uint16_t port, std::function<void(TcpConnection&)> on_accept,
                      TcpConfig config) {
  table_.listen(port, {config, std::move(on_accept)});
}

void TcpStack::dispatch(std::uint16_t local_port, const sim::Packet& pkt) {
  if (!pkt.tcp) return;
  if (TcpConnection* conn = table_.find({local_port, pkt.src, pkt.src_port})) {
    conn->on_packet(pkt);
    return;
  }
  // New connection? Only a SYN to a listening port creates state.
  const auto* listener = table_.listener(local_port);
  if (listener == nullptr || !pkt.tcp->syn || pkt.tcp->ack_flag) return;
  TcpConnection& conn = table_.add(*this, pkt.src, pkt.src_port, local_port, listener->config);
  if (listener->on_accept) listener->on_accept(conn);
  conn.on_packet(pkt);
}

void TcpStack::gc() {
  table_.erase_if([](const TcpConnection& conn) { return conn.state() == TcpState::kDone; });
}

// ================================================================ Connection

TcpConnection::TcpConnection(TcpStack& stack, sim::Ipv4Addr remote_addr,
                             std::uint16_t remote_port, std::uint16_t local_port,
                             TcpConfig config, sim::Ipv4Addr local_addr)
    : stack_{&stack},
      remote_addr_{remote_addr},
      remote_port_{remote_port},
      local_port_{local_port},
      local_addr_{local_addr},
      config_{config},
      rto_{config.initial_rto},
      rto_timer_{stack.sim()},
      rcv_buffer_{config.initial_rcv_buffer},
      delack_timer_{stack.sim()} {
  cc::CcConfig cc_config;
  cc_config.mss = config_.mss;
  cc_config.initial_window_segments = config_.initial_window_segments;
  cc_config.min_cwnd_bytes = 2ull * config_.mss;
  cc_ = cc::make_controller(config_.algorithm, cc_config);
  flow_id_ = stack.sim().next_flow_id();
}

TcpConnection::~TcpConnection() = default;

void TcpConnection::start_connect() {
  state_ = TcpState::kSynSent;
  send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false, /*seq=*/0);
  arm_rto();
}

std::uint64_t TcpConnection::send_window() const {
  return std::min<std::uint64_t>(cc_->cwnd_bytes(), peer_rwnd_);
}

void TcpConnection::send(std::uint64_t bytes) {
  stream_length_ += bytes;
  maybe_send();
}

void TcpConnection::close() {
  if (fin_queued_) return;
  fin_queued_ = true;
  maybe_send();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kDone) return;
  send_control(/*syn=*/false, /*ack=*/false, /*fin=*/false, /*seq=*/snd_una_, /*rst=*/true);
  enter_dead_state();
  if (on_closed) on_closed();
}

void TcpConnection::enter_dead_state() {
  state_ = TcpState::kDone;
  rto_timer_.cancel();
  delack_timer_.cancel();
  in_flight_.clear();
  bytes_in_flight_ = 0;
  lost_unsacked_ = 0;
  rack_scan_floor_ = TimePoint::infinite();
}

// ------------------------------------------------------------- transmit path

std::uint64_t TcpConnection::advertise_window() {
  if (advertised_window_ == 0) advertised_window_ = config_.initial_rcv_buffer;
  advertised_window_ =
      std::min<std::uint64_t>(rcv_buffer_, advertised_window_ + 8ull * config_.mss);
  // Manual-read mode: unconsumed data occupies the buffer.
  const std::uint64_t occupied = manual_read_ ? unread_bytes_ : 0;
  last_advertised_ = occupied >= advertised_window_ ? 0 : advertised_window_ - occupied;
  return last_advertised_;
}

void TcpConnection::consume(std::uint64_t bytes) {
  unread_bytes_ -= std::min(unread_bytes_, bytes);
  if (!manual_read_ || state_ == TcpState::kDone) return;
  // Window update: wake the sender once meaningful space opened up.
  const std::uint64_t occupied = unread_bytes_;
  const std::uint64_t now_avail =
      occupied >= advertised_window_ ? 0 : advertised_window_ - occupied;
  if (now_avail >= last_advertised_ + 2ull * config_.mss) {
    send_ack_now();
  }
}

sim::Packet TcpConnection::make_segment(std::uint64_t seq, bool ack) {
  sim::Packet pkt;
  pkt.src = local_addr_;  // 0 in host mode: the host stamps its own address
  pkt.dst = remote_addr_;
  pkt.src_port = local_port_;
  pkt.dst_port = remote_port_;
  pkt.proto = sim::Protocol::kTcp;
  pkt.flow_id = flow_id_;
  pkt.size_bytes = config_.header_bytes;
  sim::TcpHeader& hdr = pkt.tcp.emplace();
  hdr.seq = seq;
  hdr.ack_flag = ack;
  hdr.ack = ack ? rcv_nxt_ : 0;
  hdr.window = static_cast<std::uint32_t>(std::min<std::uint64_t>(advertise_window(), ~0u));
  return pkt;
}

void TcpConnection::send_control(bool syn, bool ack, bool fin, std::uint64_t seq, bool rst) {
  sim::Packet pkt = make_segment(seq, ack);
  sim::TcpHeader& hdr = *pkt.tcp;
  hdr.syn = syn;
  hdr.fin = fin;
  hdr.rst = rst;
  if (syn) hdr.mss_option = static_cast<std::uint16_t>(config_.mss);
  if (ack) {
    // Most-recent (highest) ranges first, like real SACK generation: the
    // sender must learn promptly that the tail of a flight arrived, or its
    // pipe estimate stays inflated and recovery deadlocks into RTO. The
    // block budget is more generous than the 3-4 of a real 40-byte option
    // space; see DESIGN.md on this deliberate idealization.
    for (auto it = ooo_.rbegin(); it != ooo_.rend() && hdr.sack.size() < 16; ++it) {
      hdr.sack.emplace_back(it->start, it->end);
    }
    if (!hdr.sack.empty()) pkt.size_bytes += 12;
  }
  stats_.segments_sent++;
  stack_->transmit(std::move(pkt));
}

void TcpConnection::send_segment(std::uint64_t seq, std::uint64_t len, bool retransmission) {
  sim::Packet pkt = make_segment(seq, /*ack=*/state_ != TcpState::kSynSent);
  pkt.tcp->payload_bytes = static_cast<std::uint32_t>(len);
  pkt.size_bytes += static_cast<std::uint32_t>(len);

  auto& seg = in_flight_[seq];
  if (seg.lost && !seg.sacked) lost_unsacked_--;  // this send clears the mark
  const TimePoint prev_sent_at = seg.sent_at;
  if (stack_->sim().provenance()) {
    // Self-attach: PEP relay legs transmit through a raw Interface, never
    // Host::send, so the stamp must happen here. A retransmission credits
    // the time since the previous (lost) copy left to loss recovery, keeping
    // the propagation/queueing components clean of recovery stalls.
    sim::attach_provenance(pkt, stack_->sim().now());
    if (retransmission && prev_sent_at <= stack_->sim().now()) {
      sim::prov_tag(pkt)->add(obs::kLossRecovery, stack_->sim().now() - prev_sent_at);
    }
  }
  seg.len = len;
  seg.sent_at = stack_->sim().now();
  seg.retransmitted = seg.retransmitted || retransmission;
  seg.lost = false;
  seg.cwnd_limited = cc_->cwnd_bytes() <= peer_rwnd_;
  bytes_in_flight_ += len;
  // The segment is now a RACK candidate (!sacked && !lost) sent at `now`.
  rack_scan_floor_ = std::min(rack_scan_floor_, seg.sent_at);

  stats_.segments_sent++;
  if (retransmission) stats_.retransmissions++;
  stack_->transmit(std::move(pkt));
  if (!rto_timer_.armed()) arm_rto();
}

void TcpConnection::maybe_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait) {
    return;
  }

  int budget = config_.max_burst_segments;
  auto may_send_bytes = [this](std::uint64_t len) {
    if (bytes_in_flight_ + len > send_window()) return false;
    // PRR: recovery transmissions are clocked by delivered bytes.
    return !in_recovery_ || prr_credit_ >= len;
  };
  auto charge = [this](std::uint64_t len) {
    if (in_recovery_) prr_credit_ -= std::min(prr_credit_, len);
  };

  // 1. Retransmit segments marked lost (pipe accounting already excludes
  //    them from bytes_in_flight_). `lost_unsacked_` counts exactly the
  //    segments this scan is after, so fast-forward skips the whole walk on
  //    the common all-clear ACK (Simulator::fast_forward off keeps the walk
  //    as the reference).
  if (!stack_->sim().fast_forward() || lost_unsacked_ > 0) {
    for (auto& [seq, seg] : in_flight_) {
      if (budget <= 0) break;
      if (seg.lost && !seg.sacked) {
        if (!may_send_bytes(seg.len)) break;
        send_segment(seq, seg.len, /*retransmission=*/true);
        charge(seg.len);
        --budget;
      }
    }
  }

  // 2. New data.
  while (budget > 0 && snd_nxt_data_ < stream_length_) {
    const std::uint64_t len =
        std::min<std::uint64_t>(config_.mss, stream_length_ - snd_nxt_data_);
    if (!may_send_bytes(len)) break;
    send_segment(1 + snd_nxt_data_, len, /*retransmission=*/false);
    snd_nxt_data_ += len;
    charge(len);
    --budget;
  }

  // 3. FIN once the stream is fully sent.
  if (fin_queued_ && !fin_sent_ && snd_nxt_data_ == stream_length_) {
    fin_sent_ = true;
    send_control(/*syn=*/false, /*ack=*/state_ != TcpState::kSynSent, /*fin=*/true, fin_seq());
    if (state_ == TcpState::kEstablished) state_ = TcpState::kFinWait;
    if (!rto_timer_.armed()) arm_rto();
  }
}

// ------------------------------------------------------------- receive path

void TcpConnection::on_packet(const sim::Packet& pkt) {
  if (state_ == TcpState::kDone) {
    // Classic half-dead behavior: answer stray in-window traffic with RST so
    // the peer tears down too (lost RSTs must not leave it retransmitting
    // into the void until its RTO gives up).
    if (pkt.tcp && !pkt.tcp->rst && pkt.tcp->payload_bytes > 0) {
      send_control(/*syn=*/false, /*ack=*/false, /*fin=*/false, /*seq=*/snd_una_, /*rst=*/true);
    }
    return;
  }
  assert(pkt.tcp.has_value());
  stats_.segments_received++;
  const sim::TcpHeader& hdr = *pkt.tcp;

  if (hdr.rst) {
    enter_dead_state();
    if (on_error) on_error();
    return;
  }

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived ||
      (state_ == TcpState::kClosed && hdr.syn)) {
    handle_handshake(pkt);
    return;
  }

  if (hdr.ack_flag) {
    peer_rwnd_ = hdr.window;
    handle_ack(pkt);
  }
  if (state_ == TcpState::kDone) return;

  if (hdr.payload_bytes > 0 || hdr.fin) {
    handle_data(pkt);
  }
}

void TcpConnection::handle_handshake(const sim::Packet& pkt) {
  const sim::TcpHeader& hdr = *pkt.tcp;
  switch (state_) {
    case TcpState::kClosed:
      // Passive open: consume SYN.
      if (hdr.syn && !hdr.ack_flag) {
        rcv_nxt_ = 1;
        state_ = TcpState::kSynReceived;
        send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false, /*seq=*/0);
        arm_rto();
      }
      return;
    case TcpState::kSynSent:
      if (hdr.syn && hdr.ack_flag && hdr.ack >= 1) {
        snd_una_ = 1;
        rcv_nxt_ = 1;
        peer_rwnd_ = hdr.window;
        state_ = TcpState::kEstablished;
        rto_timer_.cancel();
        rto_backoff_ = 0;
        send_control(/*syn=*/false, /*ack=*/true, /*fin=*/false, /*seq=*/1);
        if (on_established) on_established();
        maybe_send();
      }
      return;
    case TcpState::kSynReceived:
      if (hdr.syn && !hdr.ack_flag) {
        // Duplicate SYN: resend SYN/ACK.
        send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false, /*seq=*/0);
        return;
      }
      if (hdr.ack_flag && hdr.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        peer_rwnd_ = hdr.window;
        state_ = TcpState::kEstablished;
        rto_timer_.cancel();
        rto_backoff_ = 0;
        if (on_established) on_established();
        // The ACK may carry data; fall through to normal processing.
        if (hdr.payload_bytes > 0 || hdr.fin) handle_data(pkt);
        maybe_send();
      }
      return;
    default:
      return;
  }
}

void TcpConnection::update_rtt(Duration sample) {
  if (sample <= Duration::zero()) return;
  rtt_.update(sample);
  rto_ = std::clamp(rtt_.srtt + std::max(rtt_.rttvar * 4.0, Duration::millis(1)),
                    config_.min_rto, config_.max_rto);
  if (on_rtt_sample) on_rtt_sample(sample);
}

void TcpConnection::handle_ack(const sim::Packet& pkt) {
  const obs::SectionTimer wall{obs::Section::kCc};
  const sim::TcpHeader& hdr = *pkt.tcp;
  const std::uint64_t ack = hdr.ack;
  const TimePoint now = stack_->sim().now();
  // RTT sampling, RACK-style: a sample is valid only if it comes from the
  // newest-sent data ever acknowledged (and never retransmitted). Stale
  // acks that merely fill old holes must not poison srtt.
  const TimePoint prev_latest_acked_sent = latest_acked_sent_time_;
  TimePoint best_sample_sent_at;
  bool best_sample_cwnd_limited = false;

  // --- SACK processing -------------------------------------------------
  bool sack_advanced = false;
  std::uint64_t newly_sacked_bytes = 0;
  for (const auto& [start, end] : hdr.sack) {
    for (auto it = in_flight_.lower_bound(start); it != in_flight_.end() && it->first < end;
         ++it) {
      auto& seg = it->second;
      if (!seg.sacked && it->first + seg.len <= end) {
        seg.sacked = true;
        latest_acked_sent_time_ = std::max(latest_acked_sent_time_, seg.sent_at);
        if (!seg.retransmitted && seg.sent_at >= best_sample_sent_at) {
          best_sample_sent_at = seg.sent_at;
          best_sample_cwnd_limited = seg.cwnd_limited;
        }
        newly_sacked_bytes += seg.len;
        if (!seg.lost) {
          assert(bytes_in_flight_ >= seg.len);
          bytes_in_flight_ -= seg.len;
        } else {
          assert(lost_unsacked_ > 0);
          lost_unsacked_--;  // no longer lost-and-unsacked
        }
        sack_advanced = true;
      }
    }
  }

  // --- cumulative ACK ---------------------------------------------------
  std::uint64_t acked_data_for_prr_ = 0;
  if (ack > snd_una_) {
    std::uint64_t acked_data = 0;
    while (!in_flight_.empty()) {
      auto it = in_flight_.begin();
      if (it->first + it->second.len > ack || (it->second.len == 0 && it->first >= ack)) break;
      const InFlightSegment& seg = it->second;
      acked_data += seg.len;
      latest_acked_sent_time_ = std::max(latest_acked_sent_time_, seg.sent_at);
      if (!seg.retransmitted && seg.sent_at >= best_sample_sent_at) {
        best_sample_sent_at = seg.sent_at;
        best_sample_cwnd_limited = seg.cwnd_limited;
      }
      if (!seg.sacked && !seg.lost) {
        assert(bytes_in_flight_ >= seg.len);
        bytes_in_flight_ -= seg.len;
      } else if (seg.lost && !seg.sacked) {
        assert(lost_unsacked_ > 0);
        lost_unsacked_--;
      }
      in_flight_.erase(it);
    }
    snd_una_ = ack;
    acked_data_for_prr_ = acked_data;
    stats_.bytes_acked += acked_data;
    if (acked_data > 0 && on_bytes_acked) on_bytes_acked(acked_data);
    dupacks_ = 0;
    rto_backoff_ = 0;
    Duration rtt_sample = Duration::zero();
    if (best_sample_sent_at > prev_latest_acked_sent) {
      rtt_sample = now - best_sample_sent_at;
      update_rtt(rtt_sample);
    }
    // During fast recovery the window is frozen (PRR clocks transmission);
    // RTO recovery slow-starts out of the hole like a real stack. Growth is
    // also gated on being cwnd-limited (cwnd validation): when the peer's
    // receive window is the binding constraint, the sender's bursts say
    // nothing about path capacity and must neither grow cwnd nor trip the
    // HyStart delay detector.
    const bool cwnd_limited = cc_->cwnd_bytes() <= peer_rwnd_;
    if (acked_data > 0 && cwnd_limited && (!in_recovery_ || rto_recovery_)) {
      // RTT only feeds the controller (HyStart) when the sampled segment was
      // itself sent under a cwnd limit.
      cc_->on_ack(acked_data, best_sample_cwnd_limited ? rtt_sample : Duration::zero(), now);
    }
    if (in_recovery_ && snd_una_ >= recovery_point_) {
      in_recovery_ = false;
      rto_recovery_ = false;
      note_cc_event("recovery_exit");
    }
    if (fin_sent_ && ack > fin_seq()) {
      fin_acked_ = true;
    }
  } else if (ack == snd_una_ && !in_flight_.empty() && !hdr.syn) {
    // RFC 5681 duplicate-ACK definition: no data, no window change. Pure
    // window updates (receiver buffer freed) must not trigger fast
    // retransmit.
    const bool window_update = hdr.window != prev_peer_window_;
    if ((hdr.payload_bytes == 0 && !window_update) || sack_advanced) {
      dupacks_++;
      stats_.dup_acks++;
    }
  }
  prev_peer_window_ = hdr.window;

  // --- PRR: delivered bytes grant send credit during recovery, with a
  // slow-start-reduction bound of 2x when in-flight fell below ssthresh.
  if (in_recovery_) {
    const std::uint64_t delivered = acked_data_for_prr_ + newly_sacked_bytes;
    const std::uint64_t factor = bytes_in_flight_ < cc_->ssthresh_bytes() ? 2 : 1;
    prr_credit_ += factor * delivered;
  }

  // --- loss detection ----------------------------------------------------
  detect_losses();

  // RTO management: any forward progress (cumulative or SACK) restarts the
  // timer; recovery at long RTT would otherwise trip spurious RTOs while
  // SACKs are streaming in but the first hole is still in flight.
  if (in_flight_.empty() && (!fin_sent_ || fin_acked_)) {
    rto_timer_.cancel();
  } else if (ack > last_ack_seen_ || sack_advanced) {
    arm_rto();
  }
  last_ack_seen_ = std::max(last_ack_seen_, ack);

  // Close-out: both FINs done?
  if (fin_acked_ && fin_delivered_) {
    enter_dead_state();
    if (on_closed) on_closed();
    return;
  }
  maybe_send();
}

void TcpConnection::detect_losses() {
  bool newly_lost = false;

  // RACK: a segment is lost once a segment *sent after it* has been
  // (s)acked and the reordering window has elapsed. Time-based detection
  // naturally covers retransmissions — a fresh retransmission has a fresh
  // send time and is never re-marked while still plausibly in flight.
  if (latest_acked_sent_time_ > TimePoint::epoch()) {
    const Duration reorder_window =
        std::max(rtt_.srtt * 0.25, Duration::millis(1));
    // `rack_scan_floor_` is a lower bound on the send time of every
    // candidate (!sacked && !lost) segment: if even the floor has not aged
    // past the reordering window, no candidate can have either, and the scan
    // provably finds nothing. Each scan that does run re-tightens the floor
    // to the exact minimum, so the walk amortizes to roughly once per
    // reordering window instead of once per ACK.
    const bool scan = !stack_->sim().fast_forward() ||
                      (!rack_scan_floor_.is_infinite() &&
                       rack_scan_floor_ + reorder_window < latest_acked_sent_time_);
    if (scan) {
      TimePoint new_floor = TimePoint::infinite();
      for (auto& [seq, seg] : in_flight_) {
        if (seg.sacked || seg.lost) continue;
        if (seg.sent_at + reorder_window < latest_acked_sent_time_) {
          seg.lost = true;
          lost_unsacked_++;
          assert(bytes_in_flight_ >= seg.len);
          bytes_in_flight_ -= seg.len;
          newly_lost = true;
        } else {
          new_floor = std::min(new_floor, seg.sent_at);
        }
      }
      rack_scan_floor_ = new_floor;
    }
  }

  // Classic triple-dupack on the head segment (fires once per dupack run;
  // RACK covers re-detection of lost retransmissions).
  if (dupacks_ == config_.dupack_threshold && !in_flight_.empty()) {
    auto& [seq, seg] = *in_flight_.begin();
    (void)seq;
    if (!seg.sacked && !seg.lost && !seg.retransmitted) {
      seg.lost = true;
      lost_unsacked_++;
      assert(bytes_in_flight_ >= seg.len);
      bytes_in_flight_ -= seg.len;
      newly_lost = true;
    }
  }

  if (newly_lost && !in_recovery_) {
    in_recovery_ = true;
    recovery_point_ = 1 + snd_nxt_data_;
    prr_credit_ = config_.mss;  // allow the first retransmission out
    cc_->on_congestion_event(stack_->sim().now());
    stats_.fast_recoveries++;
    note_cc_event("fast_recovery");
  }
}

void TcpConnection::note_cc_event(const char* what) {
  auto* rec = stack_->sim().obs();
  if (rec == nullptr) return;
  if (rec->options().metrics) {
    rec->registry().counter(std::string{"tcp.cc."} + what).add();
  }
  if (rec->trace().enabled()) {
    rec->trace().instant("tcp.cc", what, stack_->sim().now(),
                         "{\"flow\":" + std::to_string(flow_id_) +
                             ",\"cwnd\":" + std::to_string(cc_->cwnd_bytes()) + "}");
  }
}

void TcpConnection::handle_data(const sim::Packet& pkt) {
  const sim::TcpHeader& hdr = *pkt.tcp;
  const std::uint64_t payload = hdr.payload_bytes;
  const std::uint64_t seq = hdr.seq;
  bool out_of_order = false;

  // One-way latency provenance, recorded at the receiver for every data
  // segment that carried a tag: the wire latency of this copy plus the
  // recovery time the tag accumulated across lost predecessors.
  if (payload > 0 && pkt.flow_id != 0) {
    if (const sim::ProvenanceTag* tag = sim::prov_tag(pkt)) {
      if (obs::Recorder* rec = stack_->sim().obs()) {
        const TimePoint now = stack_->sim().now();
        rec->record_breakdown(now.ns(), pkt.flow_id, tag->comp_ns,
                              (now - pkt.first_sent).ns());
      }
    }
  }

  if (hdr.fin) peer_fin_seq_ = seq + payload;

  if (payload > 0) {
    if (seq == rcv_nxt_) {
      // Take in any out-of-order ranges the new data reaches.
      rcv_nxt_ = ooo_.advance(rcv_nxt_ + payload);
      const std::uint64_t delivered_total = rcv_nxt_ - 1;  // exclude SYN
      const std::uint64_t delta = delivered_total - stats_.bytes_delivered;
      stats_.bytes_delivered = delivered_total;
      unread_bytes_ += delta;
      delivered_since_tune_ += delta;
      autotune_rcv_buffer();
      if (on_data && delta > 0) on_data(delta);
    } else if (seq > rcv_nxt_) {
      out_of_order = true;
      ooo_.insert(seq, seq + payload);
    } else {
      out_of_order = true;  // duplicate: trigger an immediate ACK
    }
  }

  // FIN consumption (only when all data before it has arrived).
  if (peer_fin_seq_ != ~0ull && rcv_nxt_ == peer_fin_seq_ && !fin_delivered_) {
    rcv_nxt_ += 1;
    fin_delivered_ = true;
    if (state_ == TcpState::kEstablished) state_ = TcpState::kCloseWait;
    send_ack_now();
    if (fin_sent_ && fin_acked_) {
      enter_dead_state();
      if (on_closed) on_closed();
    }
    return;
  }

  // --- ACK policy: immediate on disorder or every 2nd segment, else 40ms.
  if (out_of_order || !ooo_.empty()) {
    send_ack_now();
  } else if (++unacked_segments_ >= 2) {
    send_ack_now();
  } else {
    schedule_ack();
  }
}

void TcpConnection::autotune_rcv_buffer() {
  // Dynamic right-sizing, simplified: once the app has consumed half a
  // buffer's worth since the last grow, double the buffer (Linux grows it to
  // chase the delivery rate; the cap matches the kernel default sysctl).
  if (delivered_since_tune_ * 2 >= rcv_buffer_ && rcv_buffer_ < config_.max_rcv_buffer) {
    rcv_buffer_ = std::min<std::uint64_t>(rcv_buffer_ * 2, config_.max_rcv_buffer);
    delivered_since_tune_ = 0;
  }
}

void TcpConnection::send_ack_now() {
  unacked_segments_ = 0;
  delack_timer_.cancel();
  send_control(/*syn=*/false, /*ack=*/true, /*fin=*/false, /*seq=*/1 + snd_nxt_data_);
}

void TcpConnection::schedule_ack() {
  if (delack_timer_.armed()) return;
  delack_timer_.arm(config_.delayed_ack_timeout, [this] { send_ack_now(); });
}

// ------------------------------------------------------------- timers

void TcpConnection::arm_rto() {
  Duration timeout = rto_;
  for (int i = 0; i < rto_backoff_; ++i) timeout = timeout * 2.0;
  timeout = std::min(timeout, config_.max_rto);
  rto_timer_.arm(timeout, [this] { on_rto_expired(); });
}

void TcpConnection::on_rto_expired() {
  const TimePoint now = stack_->sim().now();
  switch (state_) {
    case TcpState::kSynSent:
      if (++syn_retries_ > config_.max_syn_retries) {
        enter_dead_state();
        if (on_error) on_error();
        return;
      }
      rto_backoff_++;
      send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false, /*seq=*/0);
      arm_rto();
      return;
    case TcpState::kSynReceived:
      if (++syn_retries_ > config_.max_syn_retries) {
        enter_dead_state();
        if (on_error) on_error();
        return;
      }
      rto_backoff_++;
      send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false, /*seq=*/0);
      arm_rto();
      return;
    default:
      break;
  }

  if (in_flight_.empty() && !(fin_sent_ && !fin_acked_)) return;

  if (rto_backoff_ >= config_.max_rto_retries) {
    // The peer is gone: stop retransmitting into the void.
    enter_dead_state();
    if (on_error) on_error();
    return;
  }
  stats_.rtos++;
  rto_backoff_++;
  cc_->on_rto(now);
  note_cc_event("rto");
  prr_credit_ = config_.mss;
  rto_recovery_ = true;

  // Everything outstanding is presumed lost.
  for (auto& [seq, seg] : in_flight_) {
    if (!seg.sacked && !seg.lost) {
      seg.lost = true;
      lost_unsacked_++;
    }
  }
  rack_scan_floor_ = TimePoint::infinite();  // no RACK candidates remain
  bytes_in_flight_ = 0;
  in_recovery_ = true;
  recovery_point_ = 1 + snd_nxt_data_;

  // Retransmit the head segment immediately.
  if (!in_flight_.empty()) {
    auto& [seq, seg] = *in_flight_.begin();
    if (!seg.sacked) send_segment(seq, seg.len, /*retransmission=*/true);
  } else if (fin_sent_ && !fin_acked_) {
    send_control(/*syn=*/false, /*ack=*/true, /*fin=*/true, fin_seq());
  }
  arm_rto();
}

}  // namespace slp::tcp
