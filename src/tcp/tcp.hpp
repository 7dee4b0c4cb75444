// tcp.hpp — a segment-level TCP model: handshake, Cubic/NewReno congestion
// control, SACK-based loss recovery, RTO with backoff, delayed ACKs and
// receive-window autotuning.
//
// Fidelity targets (what the paper's results actually depend on):
//   * slow start + congestion avoidance dynamics against drop-tail queues
//     (Figure 5 throughput, Figure 3 RTT-under-load for the TCP side);
//   * connection setup cost (SYN/SYNACK/ACK) — dominant for SatCom web QoE;
//   * receive-window autotuning from the kernel's 128 KiB default to the
//     6 MiB maximum (§2 of the paper documents exactly these values);
//   * PEP splittability: the handshake is real packets, so the geo:: PEP can
//     intercept and terminate it — and Tracebox can catch it doing so.
//
// Data is synthetic: the stream carries byte *counts*, not bytes. All
// sequence arithmetic is still exact.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "sim/conn_table.hpp"
#include "sim/host.hpp"
#include "tcp/congestion.hpp"
#include "util/interval_set.hpp"
#include "util/units.hpp"

namespace slp::tcp {

struct TcpConfig {
  std::uint32_t mss = 1448;
  cc::CcAlgorithm algorithm = cc::CcAlgorithm::kCubic;
  std::uint32_t initial_window_segments = 10;

  /// Kernel-default receive buffer and autotuning cap (paper §2: 131072
  /// default, 6291456 max "through automatic buffer tuning").
  std::uint64_t initial_rcv_buffer = 131'072;
  std::uint64_t max_rcv_buffer = 6'291'456;

  Duration delayed_ack_timeout = Duration::millis(40);
  Duration initial_rto = Duration::seconds(1);
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(60);
  int dupack_threshold = 3;
  int max_syn_retries = 6;
  /// Consecutive data RTOs before the connection gives up (on_error).
  int max_rto_retries = 10;
  /// Packet-conservation burst cap: at most this many segments leave per
  /// send opportunity (ACK arrival / app write). Prevents window-sized
  /// line-rate bursts from flooding shallow queues during recovery.
  int max_burst_segments = 10;
  std::uint32_t header_bytes = 40;  ///< IP+TCP overhead per segment
};

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,    ///< our FIN sent, waiting for it to be acked + peer FIN
  kCloseWait,  ///< peer FIN received, we may still send
  kDone,       ///< fully closed
};

[[nodiscard]] std::string_view to_string(TcpState s);

class TcpStack;

/// One TCP connection endpoint. Created via TcpStack::connect / listen.
class TcpConnection {
 public:
  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rtos = 0;
    std::uint64_t fast_recoveries = 0;
    std::uint64_t dup_acks = 0;
    std::uint64_t bytes_acked = 0;      ///< sender side
    std::uint64_t bytes_delivered = 0;  ///< receiver side, in-order
  };

  // -- application API --------------------------------------------------

  /// Appends `bytes` of (synthetic) data to the send stream.
  void send(std::uint64_t bytes);
  /// Switches the receiver to explicit consumption: delivered bytes occupy
  /// the receive buffer until consume() releases them, which closes the
  /// advertised window against a slow reader (how the PEP exerts relay
  /// backpressure on fast servers).
  void set_manual_read(bool manual) { manual_read_ = manual; }
  /// Releases `bytes` of buffered data (manual-read mode).
  void consume(std::uint64_t bytes);
  /// Half-closes after all queued data: sends FIN.
  void close();
  /// Aborts immediately (RST).
  void abort();

  std::function<void()> on_established;
  /// In-order delivery progress: called with the newly delivered byte count.
  std::function<void(std::uint64_t)> on_data;
  /// Connection fully closed (FIN exchange complete) or aborted.
  std::function<void()> on_closed;
  /// Handshake gave up (SYN retries exhausted) or RST received.
  std::function<void()> on_error;
  /// Every valid RTT sample (Karn-filtered), for latency-under-load figures.
  std::function<void(Duration)> on_rtt_sample;
  /// Sender-side: cumulative-ack progress in bytes (newly acked app data).
  std::function<void(std::uint64_t)> on_bytes_acked;

  // -- introspection -----------------------------------------------------

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  [[nodiscard]] std::uint64_t rcv_buffer_bytes() const { return rcv_buffer_; }
  [[nodiscard]] Duration srtt() const { return rtt_.srtt; }
  [[nodiscard]] sim::Ipv4Addr remote_addr() const { return remote_addr_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] std::uint64_t bytes_unsent() const { return stream_length_ - snd_nxt_data_; }
  [[nodiscard]] std::uint64_t flow_id() const { return flow_id_; }

  ~TcpConnection();

 private:
  friend class TcpStack;
  template <typename, typename>
  friend class sim::ConnTable;

  TcpConnection(TcpStack& stack, sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                std::uint16_t local_port, TcpConfig config,
                sim::Ipv4Addr local_addr = 0);

  // Sequence-space layout: SYN occupies seq 0, data starts at 1, FIN
  // occupies seq 1 + stream_length.
  struct InFlightSegment {
    std::uint64_t len = 0;       ///< payload bytes
    TimePoint sent_at;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;           ///< scheduled for retransmission
    /// True if cwnd (not the peer's receive window) was the binding limit
    /// when this segment left. Only such samples may drive congestion
    /// control growth/HyStart: receive-window-opening bursts inflate RTT
    /// for reasons that say nothing about path congestion.
    bool cwnd_limited = false;
  };

  void start_connect();
  void on_packet(const sim::Packet& pkt);
  void handle_handshake(const sim::Packet& pkt);
  void handle_ack(const sim::Packet& pkt);
  void handle_data(const sim::Packet& pkt);
  void maybe_send();
  void send_segment(std::uint64_t seq, std::uint64_t len, bool retransmission);
  void send_ack_now();
  void schedule_ack();
  void send_control(bool syn, bool ack, bool fin, std::uint64_t seq, bool rst = false);
  /// Builds a header-only segment to the peer: addresses, ports, flow id,
  /// `seq`, the ack of `rcv_nxt_` when `ack`, and the advertised window.
  /// Every segment this end sends starts here.
  [[nodiscard]] sim::Packet make_segment(std::uint64_t seq, bool ack);
  void arm_rto();
  void on_rto_expired();
  void update_rtt(Duration sample);
  void detect_losses();
  void autotune_rcv_buffer();
  [[nodiscard]] std::uint64_t advertise_window();
  void enter_dead_state();
  /// Records a congestion-control state transition (counter + trace instant).
  void note_cc_event(const char* what);
  [[nodiscard]] std::uint64_t send_window() const;
  [[nodiscard]] std::uint64_t fin_seq() const { return 1 + stream_length_; }

  TcpStack* stack_;
  sim::Ipv4Addr remote_addr_;
  std::uint16_t remote_port_;
  std::uint16_t local_port_;
  sim::Ipv4Addr local_addr_ = 0;  ///< 0 = let the host stamp its address
  TcpConfig config_;
  TcpState state_ = TcpState::kClosed;
  std::unique_ptr<cc::CongestionController> cc_;
  std::uint64_t flow_id_ = 0;

  // --- sender ---
  std::uint64_t stream_length_ = 0;   ///< total bytes the app has queued
  std::uint64_t snd_una_ = 0;         ///< oldest unacked sequence
  std::uint64_t snd_nxt_data_ = 0;    ///< next *new* data byte to send (0-based)
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::map<std::uint64_t, InFlightSegment> in_flight_;  ///< keyed by seq
  std::uint64_t bytes_in_flight_ = 0;
  /// Count of segments with (lost && !sacked) — exactly the set maybe_send's
  /// retransmit pass looks for. Zero lets fast-forward skip that scan.
  std::uint64_t lost_unsacked_ = 0;
  /// Conservative lower bound on the send time of any RACK loss candidate
  /// (segment with !sacked && !lost); infinite when provably none. Lets
  /// fast-forward skip the RACK scan while `floor + reorder_window` has not
  /// been reached, and is re-tightened exactly on every scan that does run.
  TimePoint rack_scan_floor_ = TimePoint::infinite();
  std::uint64_t peer_rwnd_ = 65'535;
  /// RACK (RFC 8985, simplified): newest send time among acked/sacked
  /// segments. A segment is lost when something sent later was acked and a
  /// reordering window has passed — this never re-marks an in-flight
  /// retransmission (its send time is fresh).
  TimePoint latest_acked_sent_time_;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;  ///< RTO recovery slow-starts (cc keeps growing)
  std::uint64_t recovery_point_ = 0;
  /// PRR-style conservation credit: during recovery, transmission is clocked
  /// by delivered (acked+sacked) bytes instead of a free-running window, so
  /// recovery never floods the very queue that just overflowed.
  std::uint64_t prr_credit_ = 0;
  int dupacks_ = 0;
  std::uint64_t last_ack_seen_ = 0;
  std::uint64_t prev_peer_window_ = 0;  ///< RFC 5681: window updates are not dupacks
  int syn_retries_ = 0;

  // --- RTT/RTO ---
  cc::RttEstimator rtt_;
  Duration rto_;
  int rto_backoff_ = 0;
  sim::Timer rto_timer_;

  // --- receiver ---
  std::uint64_t rcv_nxt_ = 0;  ///< next expected (0 until SYN consumed)
  util::IntervalSet ooo_;  ///< out-of-order byte ranges
  std::uint64_t rcv_buffer_;
  bool manual_read_ = false;
  std::uint64_t unread_bytes_ = 0;
  std::uint64_t last_advertised_ = 0;
  /// Window actually advertised: chases rcv_buffer_ by at most +4 MSS per
  /// ACK, so buffer-autotune steps never release window-sized megabursts
  /// from the peer (they would cause transient queue spikes and false
  /// HyStart exits).
  std::uint64_t advertised_window_ = 0;
  std::uint64_t peer_fin_seq_ = ~0ull;
  bool fin_delivered_ = false;
  int unacked_segments_ = 0;
  sim::Timer delack_timer_;
  std::uint64_t delivered_since_tune_ = 0;

  Stats stats_;
};

/// Per-endpoint TCP stack: owns connections and demultiplexes segments.
///
/// Two modes:
///  * Host mode — bound to a sim::Host; packets arrive via the host's UDP/TCP
///    demux, outgoing segments go through Host::send. The normal case.
///  * Raw mode — constructed with an explicit transmit function; the owner
///    feeds packets in via deliver() and outgoing segments (with arbitrary,
///    possibly spoofed source addresses) go to the transmit hook. This is
///    how the geo:: PEP terminates TCP transparently on-path.
class TcpStack {
 public:
  explicit TcpStack(sim::Host& host);
  /// Raw mode. `transmit` receives fully-formed segments (src already set).
  TcpStack(sim::Simulator& sim, std::function<void(sim::Packet)> transmit);

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Active open. The returned reference stays valid until the connection
  /// reaches kDone and `gc()` is called (or the stack dies).
  TcpConnection& connect(sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                         TcpConfig config = {});

  /// Active open with an explicit (possibly spoofed) local address/port —
  /// raw mode only; used by the PEP to impersonate the client on the
  /// server-side leg.
  TcpConnection& connect_spoofed(sim::Ipv4Addr local_addr, std::uint16_t local_port,
                                 sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                 TcpConfig config = {});

  /// Passive open: every new peer produces a fresh connection, handed to
  /// `on_accept` before the SYN/ACK goes out.
  void listen(std::uint16_t port, std::function<void(TcpConnection&)> on_accept,
              TcpConfig config = {});

  /// Raw mode: accept a connection for an arbitrary (addr, port) the stack
  /// does not really own — the PEP impersonating a remote server. The SYN
  /// packet must be passed to deliver() afterwards.
  TcpConnection& accept_spoofed(sim::Ipv4Addr local_addr, std::uint16_t local_port,
                                sim::Ipv4Addr remote_addr, std::uint16_t remote_port,
                                TcpConfig config = {});

  /// Raw mode packet input; also usable in host mode for testing.
  /// Returns true if a connection consumed the packet.
  bool deliver(const sim::Packet& pkt);

  [[nodiscard]] sim::Simulator& sim() { return *sim_; }

  /// Destroys connections in kDone state.
  void gc();

  [[nodiscard]] std::size_t connection_count() const { return table_.size(); }

 private:
  friend class TcpConnection;

  void dispatch(std::uint16_t local_port, const sim::Packet& pkt);
  void transmit(sim::Packet pkt);
  std::uint16_t alloc_port();

  sim::Simulator* sim_;
  sim::Host* host_ = nullptr;                       ///< null in raw mode
  std::function<void(sim::Packet)> transmit_fn_;    ///< set in raw mode
  std::uint16_t next_raw_port_ = 49152;
  sim::ConnTable<TcpConnection, TcpConfig> table_;  ///< binds nothing in raw mode
};

}  // namespace slp::tcp
