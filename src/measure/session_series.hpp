// session_series.hpp — the sequential-session driver; contract in campaign.hpp.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace slp::measure {

class SessionSeries {
 public:
  /// A launched session. Only its first report returns true; on false the
  /// caller ignores the event (folds no samples).
  struct Session {
    SessionSeries* series;
    int index;  ///< in [0, sessions)
    bool complete() const { return series->end(index, true); }
    bool abandon() const { return series->end(index, false); }
  };

  /// Zero `deadline` = no deadline.
  SessionSeries(sim::Simulator& sim, int sessions, Duration gap,
                Duration deadline = Duration::zero())
      : sim_{&sim}, sessions_{sessions}, gap_{gap}, deadline_{deadline} {}

  /// Starts session 0 through `start` (later ones start from sim events),
  /// runs the simulator to completion, adds campaign.sessions_* to its
  /// registry (metrics on) and returns the number of completed sessions.
  int run(std::function<void(Session)> start) {
    start_ = std::move(start);
    launch(0);
    sim_->run();
    if (obs::Recorder* rec = sim_->obs(); rec != nullptr && rec->options().metrics) {
      obs::Registry& reg = rec->registry();
      reg.counter("campaign.sessions_launched").add(static_cast<std::uint64_t>(launched_));
      reg.counter("campaign.sessions_completed").add(static_cast<std::uint64_t>(completed_));
      reg.counter("campaign.sessions_abandoned").add(static_cast<std::uint64_t>(abandoned()));
    }
    return completed_;
  }

  /// Launched sessions that did not complete, a still-open one included.
  [[nodiscard]] int abandoned() const { return launched_ - completed_; }

 private:
  void launch(int index) {
    if (index >= sessions_) return;
    launched_++;
    open_ = true;
    start_(Session{this, index});
    if (deadline_ > Duration::zero()) {
      sim_->schedule_in(deadline_, [this, index] { end(index, false); });
    }
  }

  /// Sessions run one at a time, so only the latest one can be open.
  bool end(int index, bool completed) {
    if (!open_ || index != launched_ - 1) return false;
    open_ = false;
    if (completed) completed_++;
    sim_->schedule_in(gap_, [this, index] { launch(index + 1); });
    return true;
  }

  sim::Simulator* sim_;
  int sessions_;
  Duration gap_;
  Duration deadline_;
  std::function<void(Session)> start_;
  int launched_ = 0;
  int completed_ = 0;
  bool open_ = false;  ///< the latest launched session has not ended
};

}  // namespace slp::measure
