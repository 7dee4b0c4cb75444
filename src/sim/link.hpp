// link.hpp — point-to-point links with serialization, queuing, propagation
// and pluggable loss.
//
// A link is the only place where time "costs" anything in the simulator:
//   enqueue -> (drop-tail if full) -> serialize at `rate` -> propagate for
//   `delay` -> optional loss -> deliver to the peer interface.
//
// Rates and delays can be functions of time: the Starlink access link uses a
// delay function driven by satellite geometry (slant ranges change every
// handover slot) and a rate function driven by the shared-cell load process.
//
// Each direction runs in one of three modes, cheapest first:
//
//   * fast (analytic express): when the direction is static — fixed rate,
//     fixed delay, no loss model, no AQM, not traced — and the simulator's
//     fast-forward knob is on, serialization is computed analytically at
//     enqueue (a virtual busy-until horizon plus a virtual queue) and the
//     packet goes straight into the in-flight list with its delivery time.
//     One event per packet, zero per-packet allocations (pinned by
//     tests/alloc_test.cpp). Any live
//     reconfiguration (scenario epoch, shaper, handover retune) falls the
//     direction back to event mode mid-flight with exact state handover.
//   * batched events: dynamic directions serialize packet-by-packet, but the
//     serializer slot lives in the Direction (the event is a 16-byte
//     [this, direction] thunk, never a heap-spilled packet capture) and
//     deliveries share ONE armed event per direction: completions that land
//     due together coalesce into a single event-queue entry.
//   * unbatched reference: the original two-events-per-packet scheduling,
//     kept behind `Config::unbatched` as the behavioural reference for the
//     property suite (tests/property_test.cpp).
//
// Equivalence note (pinned by tests/packet_path_test.cpp): fast mode treats
// a serializer that frees at exactly t as idle for an enqueue at t, where
// event mode's outcome depends on event ordering within the same
// nanosecond. With fractional-nanosecond serialization times such ties do
// not occur in practice; the differential suite runs both modes and
// compares exports byte-for-byte. In fast/batched modes tx_packets/tx_bytes
// are accounted when the packet is delivered (or destroyed by the medium),
// not at serialization end, so both modes agree at any run cutoff; totals at
// quiescence are identical to the unbatched reference.
//
// Storage: every per-direction queue — packets awaiting serialization, the
// due-sorted in-flight arrivals and the fast path's virtual pipe — is a
// util::Ring, a FIFO of fixed-size blocks that recycles its blocks through
// one spare, so its memory follows the live depth and a queue cycling at a
// steady depth never allocates. Packets move through a hop by rvalue
// (Interface::send -> enqueue -> ring -> deliver_due -> Node::handle_packet),
// so a forwarded packet is never copied and a steady-state hop in fast or
// batched mode never touches the heap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "sim/node.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ring.hpp"
#include "util/units.hpp"

namespace slp::sim {

struct ProvenanceTag;

/// Decides whether a packet in flight is destroyed by the medium.
/// Implementations live in slp::phy (Gilbert-Elliott, outages, ...).
class LossModel {
 public:
  virtual ~LossModel() = default;
  [[nodiscard]] virtual bool should_drop(TimePoint now, const Packet& pkt) = 0;
};

class Link {
 public:
  struct DirectionConfig {
    DataRate rate = DataRate::gbps(1);
    /// When set, sampled at each transmission start (time-varying capacity).
    std::function<DataRate(TimePoint)> rate_fn;
    Duration delay = Duration::millis(1);
    /// When set, sampled at each transmission end (dynamic propagation).
    std::function<Duration(TimePoint)> delay_fn;
    std::size_t queue_capacity_bytes = 256 * 1024;
    /// Not owned; must outlive the link. nullptr = lossless medium.
    LossModel* loss = nullptr;
    /// Optional AQM/scheduler drop decision, evaluated at enqueue with the
    /// instantaneous queue fill fraction. Models utilization-coupled loss
    /// (drops that only happen when the link is loaded).
    std::function<bool(TimePoint, const Packet&, double queue_fraction)> aqm;
    /// Latency-provenance attribution for dynamic delays: called immediately
    /// after `delay_fn` with the drawn total so the owner (e.g. the Starlink
    /// access model) can split it into components from the exact pieces it
    /// just composed. Must draw no RNG. When unset, the whole delay is
    /// attributed to obs::kPropagation. Only consulted when the packet
    /// carries a tag; directions with a delay_fn never run the fast path, so
    /// the hook never has to synthesize analytically.
    std::function<void(ProvenanceTag&, Duration)> delay_attribution;
  };

  struct Config {
    DirectionConfig a_to_b;
    DirectionConfig b_to_a;
    /// Observability name ("sat", "isp", ...). Links sharing a name share
    /// metric counters; empty = pooled under "other". Named links also get
    /// queue-depth sampler probes and drop trace events.
    std::string name;
    /// Reference mode: schedule every serialization completion and delivery
    /// as its own packet-capturing event, exactly as the original
    /// implementation did. Slow; exists so the property suite can compare
    /// the batched/fast paths against it packet-for-packet.
    bool unbatched = false;
  };

  struct DirStats {
    std::uint64_t enqueued_packets = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t dropped_overflow = 0;
    std::uint64_t dropped_medium = 0;
    std::uint64_t dropped_aqm = 0;
    std::uint64_t max_queue_bytes = 0;
  };

  /// Wires interfaces `a` and `b` together. Both must be unattached.
  Link(Simulator& sim, Interface& a, Interface& b, Config config);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] const DirStats& stats_a_to_b() const { return dir_[0].stats; }
  [[nodiscard]] const DirStats& stats_b_to_a() const { return dir_[1].stats; }

  /// Bytes currently queued awaiting serialization (direction 0 = a->b).
  [[nodiscard]] std::size_t queued_bytes(int direction) const;

  /// Live re-configuration hooks (used by shapers and scenario epochs).
  /// On a fast-mode direction these first materialize the analytic state
  /// back into event mode so the change applies with packet-level exactness.
  void set_rate(int direction, DataRate rate);
  void set_delay(int direction, Duration delay);
  void set_loss(int direction, LossModel* loss);

  /// A tap sees every packet the moment it is delivered to the destination
  /// interface (after loss). Used by tests and packet captures.
  void set_delivery_tap(int direction, std::function<void(const Packet&)> tap);

  /// True while the direction serializes analytically (introspection for
  /// tests asserting fall-back/resume behaviour).
  [[nodiscard]] bool fast_path_active(int direction) const { return dir_[direction].fast; }

 private:
  friend class Interface;

  struct DirObs {
    obs::Counter enqueued;
    obs::Counter tx_bytes;
    obs::Counter delivered;
    obs::Counter dropped_overflow;
    obs::Counter dropped_medium;
    obs::Counter dropped_aqm;
    obs::Gauge fast_active;      ///< 1 while the analytic fast path serves
    std::uint64_t probe_id = 0;  ///< queue-depth sampler probe (0 = none)
  };

  /// A packet past the serializer, waiting out its propagation delay.
  struct Arrival {
    TimePoint due;       ///< delivery instant (tx_end + propagation)
    TimePoint tx_start;  ///< when serialization began
    TimePoint tx_end;    ///< when serialization completed/completes
    Packet pkt;
  };

  struct Direction {
    DirectionConfig config;
    Interface* to = nullptr;
    util::Ring<Packet> queue;  ///< awaiting serialization (event modes)
    std::size_t queued_bytes = 0;
    bool transmitting = false;

    // Batched event mode: the packet occupying the serializer. Keeping it
    // here instead of in the event closure keeps the event a small thunk.
    bool tx_valid = false;
    TimePoint tx_started;
    TimePoint tx_ends;
    Packet tx_pkt;

    /// In-flight packets ordered by due time; one delivery event is armed
    /// for the front, and a single firing drains every arrival that is due.
    util::Ring<Arrival> arrivals;
    EventId delivery_event{};
    TimePoint delivery_due = TimePoint::infinite();

    // Fast (analytic) serializer state.
    bool fast_capable = false;
    bool fast = false;
    TimePoint busy_until;  ///< end of the current virtual busy period
    /// Committed packets whose serialization has not started yet:
    /// (tx_start, wire bytes). Pruned lazily against the clock; the pruned
    /// byte sum is exactly event mode's queued_bytes at the same instant.
    util::Ring<std::pair<TimePoint, std::uint32_t>> pipe;

    DirStats stats;
    std::function<void(const Packet&)> tap;
    DirObs obs;
  };

  void init_obs();
  void trace_drop(int direction, const char* kind, const Packet& pkt);

  /// Called by Interface::send.
  void enqueue(int direction, Packet&& pkt);
  void begin_transmission(int direction, Packet&& pkt);
  void start_transmission(int direction);
  void finish_transmission(int direction, Packet pkt);  ///< unbatched reference
  void on_tx_done(int direction);                       ///< batched mode
  void push_arrival(int direction, Arrival&& arr);
  void arm_delivery(int direction, TimePoint due);
  void deliver_due(int direction);
  /// Drops a fast direction back to event mode: packets not yet fully
  /// serialized return to the serializer slot / waiting queue with their
  /// exact event-mode state; fully-serialized ones keep their deliveries.
  void materialize(int direction);
  /// Recomputes fast eligibility after construction or reconfiguration and
  /// re-enters fast mode if the direction is idle.
  void update_fast_eligibility(int direction);

  Simulator* sim_;
  Direction dir_[2];
  std::string obs_name_;  ///< resolved metric name ("other" when unnamed)
  bool traced_ = false;   ///< emit per-drop trace events (named links only)
  bool unbatched_ = false;
  /// Fast-path disqualification events, pooled across all links so silent
  /// fall-backs (a scenario retune, a loss attach) are observable.
  obs::Counter materializations_;
};

}  // namespace slp::sim
