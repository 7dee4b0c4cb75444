// quic.hpp — a QUIC transport model in the image of quiche at commit
// ba87786 (the implementation the paper used).
//
// Modelled properties the paper's methodology depends on:
//   * monotonically increasing packet numbers without gaps — retransmitted
//     data gets a NEW packet number, so every missing number at the receiver
//     is a genuine loss (§3.2's loss-measurement method);
//   * ACK frames carry ranges; the sender sees exactly which packets arrived
//     (upload loss measurement);
//   * RFC 9002 loss detection: packet threshold 3, time threshold 9/8 RTT,
//     PTO with exponential backoff;
//   * Cubic congestion control, NO PACING — quiche did not pace at that
//     commit, which the paper blames for the upload RTT inflation of the
//     messages workload (bursts of up to 25 kB hit the uplink queue at
//     line rate). `QuicConfig::pacing` exists for the ablation bench;
//   * connection-level flow control with initial max_data = 10 MB and
//     receive-window autotuning (§2);
//   * 1-RTT handshake; payloads are opaque to middleboxes (the `payload`
//     pointer models encryption: NATs/PEPs cannot parse or split it).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/conn_table.hpp"
#include "sim/host.hpp"
#include "sim/packet_pool.hpp"
#include "tcp/congestion.hpp"
#include "util/interval_set.hpp"
#include "util/small_vector.hpp"
#include "util/units.hpp"

namespace slp::quic {

struct QuicConfig {
  std::uint32_t max_payload = 1350;     ///< QUIC payload per UDP datagram
  std::uint32_t overhead = 42;          ///< IP+UDP+QUIC header+AEAD tag
  cc::CcAlgorithm algorithm = cc::CcAlgorithm::kCubic;
  std::uint32_t initial_window_segments = 10;

  /// quiche transport params from the paper: initial max_data /
  /// max_stream_data of 10 MB, then autotuned.
  std::uint64_t initial_max_data = 10ull * 1000 * 1000;
  bool autotune_flow_control = true;
  std::uint64_t max_flow_window = 512ull * 1000 * 1000;

  Duration max_ack_delay = Duration::millis(25);
  int ack_every = 2;                    ///< ack-eliciting packets per ACK
  int packet_threshold = 3;             ///< RFC 9002 §6.1.1
  double time_threshold = 9.0 / 8.0;    ///< RFC 9002 §6.1.2
  Duration initial_rtt = Duration::millis(333);
  Duration granularity = Duration::millis(1);

  /// quiche (at the paper's commit) does not pace; flip for the ablation.
  bool pacing = false;
  /// Packets released per send opportunity (ack clocking smooths bursts).
  int max_burst_packets = 10;
  /// RFC 9002 reduces the window at most once per round trip. quiche at the
  /// paper's commit reacted to loss more eagerly — the paper's explanation
  /// for single-connection H3 downloads trailing the parallel-TCP Ookla
  /// tests ("reacting more strongly to losses", §3.3). false = quiche-era.
  bool once_per_round_reduction = false;
};

/// qlog-style event hooks, consumed by measure::LossAnalyzer & friends.
struct QuicEventHooks {
  std::function<void(std::uint64_t pn, TimePoint at, std::uint32_t bytes)> on_packet_sent;
  std::function<void(std::uint64_t pn, TimePoint at)> on_packet_received;
  /// Fired for every packet newly acknowledged; `rtt` = ack time - send time
  /// of *that* packet (the paper computes RTT "for every acknowledged
  /// packet" this way from the captures).
  std::function<void(std::uint64_t pn, Duration rtt)> on_packet_acked;
  std::function<void(std::uint64_t pn)> on_packet_lost;
};

class QuicStack;

class QuicConnection {
 public:
  // -- application API --------------------------------------------------

  /// Appends synthetic bytes to stream 0 (the H3 response/request body).
  void send_stream(std::uint64_t bytes);
  /// Sends one application message (datagram-like, but reliable: chunks are
  /// retransmitted on loss). Returns the message id.
  std::uint64_t send_message(std::uint64_t bytes);
  /// RFC 9221 DATAGRAM frame: congestion-controlled but NOT flow-controlled
  /// and NEVER retransmitted — a copy declared lost is simply gone (the
  /// sender hears about it via `on_dgram_lost`). `bytes` is clamped to the
  /// single-packet budget (`max_payload`); `cookie` is an opaque app tag
  /// echoed to both the receive and loss callbacks (frame id, seq, ...).
  /// Returns the datagram id.
  std::uint64_t send_datagram(std::uint32_t bytes, std::uint64_t cookie = 0);

  std::function<void()> on_established;
  /// In-order stream-0 delivery progress (newly delivered byte count).
  std::function<void(std::uint64_t)> on_stream_data;
  /// A complete message arrived. `queued_at` is when the sender queued it.
  std::function<void(std::uint64_t msg_id, std::uint64_t bytes, TimePoint queued_at)> on_message;
  /// An unreliable datagram arrived (exactly once per delivered copy; no
  /// reassembly, no ordering guarantee). `queued_at` = sender queue time.
  std::function<void(std::uint64_t dgram_id, std::uint64_t cookie, std::uint32_t bytes,
                     TimePoint queued_at)>
      on_dgram;
  /// Sender side: a datagram's carrying packet was declared lost; it will
  /// NOT be retransmitted. Spurious loss declarations can fire this even
  /// though the copy later arrives, exactly like real QUIC datagrams.
  std::function<void(std::uint64_t dgram_id, std::uint64_t cookie)> on_dgram_lost;
  std::function<void()> on_error;
  /// Sender-side stream progress: cumulative stream bytes acknowledged.
  /// Retransmitted ranges may be counted twice if the original also arrived
  /// (spurious loss), so treat this as monotone-but-approximate and use
  /// ">= total" completion checks.
  std::function<void(std::uint64_t)> on_stream_acked;

  QuicEventHooks hooks;

  // -- introspection -----------------------------------------------------

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;        ///< declared lost by the sender
    std::uint64_t packets_acked = 0;
    std::uint64_t bytes_acked = 0;
    std::uint64_t stream_bytes_delivered = 0;
    std::uint64_t stream_bytes_acked = 0;   ///< sender side, approximate
    std::uint64_t messages_delivered = 0;
    std::uint64_t datagrams_sent = 0;       ///< unreliable sends queued
    std::uint64_t datagrams_delivered = 0;  ///< copies that arrived
    std::uint64_t datagrams_lost = 0;       ///< copies declared lost (no rtx)
    std::uint64_t ptos = 0;
    std::uint64_t largest_pn_sent = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] Duration srtt() const { return rtt_.srtt; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  [[nodiscard]] std::uint64_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] std::uint64_t flow_window() const { return local_max_data_; }
  [[nodiscard]] sim::Ipv4Addr remote_addr() const { return remote_addr_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] sim::Simulator& sim() const;

  ~QuicConnection();

 private:
  friend class QuicStack;
  template <typename, typename>
  friend class sim::ConnTable;

  // What one QUIC packet carried (the "encrypted" payload — opaque to the
  // network, reconstructed by the peer endpoint).
  struct MsgChunk {
    std::uint64_t msg_id = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    bool last = false;
    /// RFC 9221 datagram: single-chunk, never split across packets, never
    /// re-queued on loss, bypasses flow control and reassembly. `total`
    /// carries the application cookie instead of a message length.
    bool unreliable = false;
    TimePoint queued_at;
    std::uint64_t total = 0;
  };
  /// Overflow segment for packets carrying more message chunks than fit
  /// inline in Payload: a pool-slot record chaining to the next segment.
  /// SentPacket shares the chain by reference — recording a sent packet is a
  /// refcount bump, not a chunk-vector copy.
  struct ChunkSeg {
    util::SmallVector<MsgChunk, 4> chunks;
    sim::PayloadRef next;  ///< further ChunkSeg, empty at the tail
  };
  struct AckFrame {
    std::uint64_t largest = 0;
    /// Host delay between receiving `largest` and sending this ACK; the
    /// sender subtracts it from the RTT sample (RFC 9002 §5.3).
    Duration ack_delay = Duration::zero();
    /// Inclusive [start, end] ranges, descending. Contiguous receive (the
    /// common case) is one range — inline storage keeps it off the heap.
    util::SmallVector<std::pair<std::uint64_t, std::uint64_t>, 2> ranges;
  };
  struct Payload {
    std::uint64_t pn = 0;
    bool handshake = false;
    bool ack_eliciting = false;
    // stream 0 frame
    std::uint64_t stream_offset = 0;
    std::uint32_t stream_len = 0;
    // message frames: first chunks inline, overflow in a pooled chain
    util::SmallVector<MsgChunk, 2> chunks;
    sim::PayloadRef extra;  ///< ChunkSeg chain
    // control
    std::uint64_t max_data = 0;  ///< 0 = absent
    std::optional<AckFrame> ack;
  };

  struct SentPacket {
    TimePoint sent_at;
    std::uint32_t sent_bytes = 0;  ///< wire bytes
    bool in_flight = false;        ///< counted toward bytes_in_flight
    bool ack_eliciting = false;
    bool handshake = false;
    std::uint64_t stream_offset = 0;
    std::uint32_t stream_len = 0;
    util::SmallVector<MsgChunk, 2> chunks;
    sim::PayloadRef extra;  ///< shared ChunkSeg chain (zero-copy)
    std::uint64_t max_data = 0;
  };

  /// Visits every message chunk of a Payload or SentPacket: the inline ones,
  /// then the pooled overflow chain.
  template <typename Rec, typename F>
  static void for_each_chunk(const Rec& rec, F&& f) {
    for (const MsgChunk& c : rec.chunks) f(c);
    for (const sim::PayloadRef* seg = &rec.extra; *seg;) {
      const ChunkSeg* s = seg->as<ChunkSeg>();
      for (const MsgChunk& c : s->chunks) f(c);
      seg = &s->next;
    }
  }
  template <typename Rec>
  [[nodiscard]] static bool has_chunks(const Rec& rec) {
    return !rec.chunks.empty() || static_cast<bool>(rec.extra);
  }
  /// Appends a chunk, spilling into the pooled chain once the inline slots
  /// are full. Only valid while the payload is still being built.
  static void append_chunk(Payload& p, const MsgChunk& c);

  QuicConnection(QuicStack& stack, sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                 std::uint16_t local_port, QuicConfig config, bool is_client);

  void start_connect();
  void on_datagram(const sim::Packet& pkt);
  void process_ack(const AckFrame& ack, TimePoint now);
  void detect_losses(TimePoint now);
  void on_packet_lost_internal(std::uint64_t pn, SentPacket& sp);
  /// Re-queues a lost packet's content for new packet numbers: its stream
  /// range at the front or back of `stream_rtx_`, its reliable message
  /// chunks in order at the front of `msg_queue_`. Datagram chunks are
  /// never re-sent; each is counted and reported to `on_dgram_lost`.
  void requeue_lost_content(const SentPacket& sp, bool stream_to_front);
  void deliver_stream(std::uint64_t offset, std::uint32_t len);
  void deliver_chunks(const Payload& payload);
  void maybe_send();
  /// Fills one packet, in priority order, with lost stream ranges, message
  /// chunks or new stream data. With nothing queued (a PTO probe) it leaves
  /// as a bare ack-eliciting packet.
  void send_one_packet();
  void send_handshake_packet();
  /// The one exit of every packet: numbers the filled payload, counts it
  /// and transmits it as `wire_bytes`. A tracked packet is ack-eliciting; it
  /// is also recorded in `sent_`, charged to bytes in flight, reported to
  /// `hooks.on_packet_sent` and covered by the loss timer.
  void emit(sim::PayloadRef pref, std::uint32_t wire_bytes, bool tracked);
  void queue_ack_if_needed();
  void send_ack_only();
  void arm_loss_timer();
  void on_loss_timer();
  /// Records a congestion-control transition (counter + trace instant).
  void note_cc_event(const char* what);
  void update_rtt(Duration sample);
  void maybe_send_max_data();
  /// Smoothed RTT, or the configured initial RTT before the first sample.
  [[nodiscard]] Duration base_rtt() const;
  [[nodiscard]] Duration pto_interval() const;
  [[nodiscard]] bool has_data_to_send() const;
  [[nodiscard]] AckFrame build_ack() const;

  QuicStack* stack_;
  sim::Ipv4Addr remote_addr_;
  std::uint16_t remote_port_;
  std::uint16_t local_port_;
  QuicConfig config_;
  bool is_client_;
  bool established_ = false;
  std::unique_ptr<cc::CongestionController> cc_;
  std::uint64_t flow_id_ = 0;
  std::uint64_t cwnd_probe_id_ = 0;  ///< "quic.cwnd" sampler probe

  // --- send state ---
  std::uint64_t next_pn_ = 0;
  std::map<std::uint64_t, SentPacket> sent_;
  std::uint64_t bytes_in_flight_ = 0;
  std::uint64_t largest_acked_ = 0;

  // stream 0 sender
  std::uint64_t stream_length_ = 0;
  std::uint64_t stream_next_offset_ = 0;
  /// Lost stream ranges awaiting re-send (new pns), [offset, end).
  std::deque<std::pair<std::uint64_t, std::uint64_t>> stream_rtx_;

  // message sender
  std::uint64_t next_msg_id_ = 0;
  std::uint64_t next_dgram_id_ = 0;
  std::deque<MsgChunk> msg_queue_;  ///< chunks not yet sent (incl. rtx)

  // flow control (sender view of peer's window)
  std::uint64_t peer_max_data_;
  std::uint64_t flow_bytes_sent_ = 0;  ///< stream+message bytes charged

  // --- receive state ---
  util::IntervalSet recv_pn_ranges_;  ///< received pns, newest 64 ranges
  std::uint64_t largest_recv_pn_ = 0;
  TimePoint largest_recv_at_;
  bool any_received_ = false;
  int unacked_eliciting_ = 0;
  sim::Timer ack_timer_;

  // stream 0 receiver
  util::IntervalSet stream_ooo_;  ///< received beyond the delivered prefix
  std::uint64_t stream_delivered_ = 0;

  // message receiver
  struct MsgReassembly {
    util::IntervalSet ranges;  ///< received byte ranges
    std::uint64_t received = 0;
    std::uint64_t total = 0;
    TimePoint queued_at;
    bool done = false;
  };
  std::map<std::uint64_t, MsgReassembly> reassembly_;

  // flow control (receiver side)
  std::uint64_t local_max_data_;
  std::uint64_t flow_window_size_;     ///< autotuned credit granted ahead
  std::uint64_t flow_bytes_received_ = 0;
  std::uint64_t last_max_data_sent_;

  // --- timers / RTT ---
  cc::RttEstimator rtt_;
  Duration latest_rtt_ = Duration::zero();
  Duration min_rtt_ = Duration::infinite();
  sim::Timer loss_timer_;
  sim::Timer pacing_timer_;
  int pto_count_ = 0;
  TimePoint next_send_time_;      ///< pacing release time
  TimePoint congestion_recovery_start_;  ///< one CC reaction per round

  Stats stats_;
};

/// Per-host QUIC endpoint: UDP demultiplexing + connection ownership.
class QuicStack {
 public:
  explicit QuicStack(sim::Host& host);

  QuicStack(const QuicStack&) = delete;
  QuicStack& operator=(const QuicStack&) = delete;

  QuicConnection& connect(sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                          QuicConfig config = {});
  void listen(std::uint16_t port, std::function<void(QuicConnection&)> on_accept,
              QuicConfig config = {});

  [[nodiscard]] sim::Host& host() { return *host_; }
  [[nodiscard]] sim::Simulator& sim() { return host_->sim(); }
  [[nodiscard]] std::size_t connection_count() const { return table_.size(); }

 private:
  friend class QuicConnection;

  void dispatch(std::uint16_t local_port, const sim::Packet& pkt);
  void transmit(sim::Packet pkt) { host_->send(std::move(pkt)); }

  sim::Host* host_;
  sim::ConnTable<QuicConnection, QuicConfig> table_;
};

}  // namespace slp::quic
