// sampler.hpp — periodic sim-time gauge snapshots.
//
// Components register a gauge callback ("link.sat.down.queue_bytes",
// "leo.visible_sats", "quic.cwnd") and the Simulator's run loop calls
// `sample_until(now)` lazily before dispatching each event: all grid points
// that the clock is about to pass get sampled *at that moment's state*.
// Sampling is pull-based on purpose — a self-rescheduling sample event would
// keep the EventQueue non-empty forever and `run()` would never drain.
//
// Each series is a plain (t_ns, value) vector.
//
// Series are bounded: when any probe reaches `max_points`, every series drops
// every other retained point and the sampling stride doubles, so a campaign
// that simulates 140 days at a 1 s grid still produces O(max_points) points
// per probe instead of 12 M. The schedule depends only on sim time, so
// decimation is deterministic and --jobs invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace slp::obs {

struct SeriesPoint {
  std::int64_t t_ns = 0;
  double value = 0.0;
  friend bool operator==(const SeriesPoint&, const SeriesPoint&) = default;
};

struct Series {
  std::string name;
  std::uint32_t cell = 0;  ///< sweep cell id; assigned during merge
  std::vector<SeriesPoint> points;
};

class Sampler {
 public:
  /// `max_points` bounds each probe's series; 0 = unlimited.
  explicit Sampler(Duration interval, std::size_t max_points = 0)
      : interval_{interval}, max_points_{max_points} {}

  /// Called with the grid TimePoint being sampled (probes that inspect
  /// time-dependent model state, e.g. satellite visibility, need it).
  using Probe = std::function<double(TimePoint)>;

  /// Registers a probe; returns an id usable with `remove` (needed by
  /// components that die before the run ends, e.g. per-connection cwnd).
  std::uint64_t add_probe(std::string name, Probe probe);
  void remove_probe(std::uint64_t id);

  /// Called once per (probe, grid point) as samples are taken — the anomaly
  /// detector's live feed. The points a series *retains* thin out under
  /// decimation, but the observer sees every sampled value.
  using Observer = std::function<void(const std::string& name, std::int64_t t_ns, double value)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Samples every grid point in (last_sampled, up_to]. Called by the
  /// Simulator before advancing the clock past `up_to`.
  void sample_until(TimePoint up_to);

  [[nodiscard]] Duration interval() const { return interval_; }
  /// Grid points skipped per sample; starts at 1, doubles on each decimation.
  [[nodiscard]] std::size_t stride() const { return stride_; }
  /// First grid point not yet sampled (for the run loop's cheap "due?" check).
  [[nodiscard]] TimePoint next_due() const { return next_; }

  /// Finished series, probe-registration order. Probes removed mid-run keep
  /// the points they produced.
  [[nodiscard]] std::vector<Series> take();

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::string name;
    Probe probe;          ///< empty once removed
    std::vector<SeriesPoint> points;
  };

  /// Halves every series and doubles `stride_`.
  void decimate();

  Duration interval_;
  Observer observer_;
  std::size_t max_points_ = 0;  ///< per-probe series cap; 0 = unlimited
  std::size_t stride_ = 1;      ///< current grid decimation factor
  TimePoint next_;  ///< next unsampled grid point (starts at epoch)
  std::uint64_t next_id_ = 1;
  std::vector<Slot> slots_;
};

}  // namespace slp::obs
