// simulator.hpp — discrete-event simulation kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace slp::sim {

/// The simulation kernel: a virtual clock plus the event queue.
///
/// Everything in the system — link transmissions, retransmission timers,
/// campaign rounds — is an event on this queue. The kernel is single-threaded
/// and deterministic: identical seeds and topology produce identical runs.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Deterministic per-component stream, independent of draw order elsewhere.
  [[nodiscard]] Rng fork_rng(std::string_view label) const { return rng_.fork(label); }

  EventId schedule_at(TimePoint at, util::InlineFunction fn);
  EventId schedule_in(Duration delay, util::InlineFunction fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or stop() is called; the clock stays on
  /// the last event (run_until with no deadline).
  void run();
  /// Runs events with timestamp <= deadline; the clock lands on `deadline`.
  void run_until(TimePoint deadline);
  /// Runs for `d` of simulated time from now.
  void run_for(Duration d) { run_until(now_ + d); }
  /// Stops the current run() after the in-flight event returns.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Read-only queue access (capacity introspection in regression tests).
  [[nodiscard]] const EventQueue& event_queue() const { return queue_; }

  /// Turns on observability for this simulation. Call before building the
  /// topology so components can bind handles / register probes at
  /// construction. No-op data collection when never called.
  void enable_obs(const obs::Options& opts);
  /// Null unless enable_obs() was called — instrumentation sites check this
  /// once at setup, so the per-event cost of disabled obs is zero.
  [[nodiscard]] obs::Recorder* obs() { return recorder_.get(); }
  /// Non-null only when Options::profile was set.
  [[nodiscard]] const obs::WallProfile* wall_profile() const { return profile_.get(); }
  /// Ends the cell's observability: adds the `sim.events_processed` counter
  /// (metrics on), writes the wall-profile report to stderr as one
  /// "wall-profile " prefixed line each (profile on) and freezes the data.
  /// With obs off it returns a valid empty snapshot of one cell, so campaign
  /// results merge uniformly across configurations.
  [[nodiscard]] obs::Snapshot take_obs();

  /// Enables/disables analytic fast paths (link express serialization and
  /// transport scan skipping read it at component construction). Both
  /// settings produce identical exports — the knob exists so the
  /// differential suite can run the packet-level reference. Set before
  /// building the topology.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  [[nodiscard]] bool fast_forward() const { return fast_forward_; }

  /// True when enable_obs() was called with Options::provenance — origin
  /// hosts/transports attach a pooled ProvenanceTag to each packet. Cached
  /// here so the per-send check is one bool load.
  [[nodiscard]] bool provenance() const { return provenance_; }

  /// Fresh globally-unique packet uid.
  [[nodiscard]] std::uint64_t next_packet_uid() { return next_packet_uid_++; }
  /// Fresh globally-unique flow id.
  [[nodiscard]] std::uint64_t next_flow_id() { return next_flow_id_++; }

 private:
  /// Emits any sample-grid points the clock is about to pass. Kept out of
  /// line so the run loop's fast path is a single null check.
  void sample_up_to(TimePoint at);
  /// The profile-on run loop of run_until() (and so of run()): times every
  /// callback into profile_ and stops after the last event at or before
  /// `deadline`.
  void run_profiled(TimePoint deadline);

  EventQueue queue_;
  TimePoint now_;
  Rng rng_;
  bool stopped_ = false;
  bool fast_forward_ = true;
  bool provenance_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t next_packet_uid_ = 1;
  std::uint64_t next_flow_id_ = 1;
  std::unique_ptr<obs::Recorder> recorder_;
  obs::Sampler* sampler_ = nullptr;  ///< cached from recorder_ for the run loop
  std::unique_ptr<obs::WallProfile> profile_;
};

/// A re-armable one-shot timer bound to a simulator; cancels itself on
/// destruction so callbacks can never outlive their owner (RAII for events).
///
/// The callback is kept in the timer itself and the queue only holds a
/// `[this]` thunk, so re-arming never allocates no matter how large the
/// capture — the hot RTO/delayed-ACK path is pure pointer shuffling.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_{&sim} {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer; a pending expiry is cancelled first.
  void arm(Duration delay, util::InlineFunction fn);
  void arm_at(TimePoint at, util::InlineFunction fn);
  void cancel();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] TimePoint expiry() const { return expiry_; }

 private:
  void fire();

  Simulator* sim_;
  util::InlineFunction fn_;
  EventId id_{};
  bool armed_ = false;
  TimePoint expiry_;
};

}  // namespace slp::sim
