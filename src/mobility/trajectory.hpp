// trajectory.hpp — deterministic waypoint ground motion on great circles.
//
// A trajectory is a piecewise route: travel legs that follow the great
// circle between consecutive waypoints at a per-leg cruise speed, and pause
// segments that dwell at a waypoint before departing. Evaluation is
// stateless and closed-form: state_at(elapsed) binary-searches a precomputed
// segment table and slerps within the segment, so position queries are
// random-access (any t, any order, no integration state) — the same contract
// the fleet's stateless demand model relies on, and what makes a moving
// terminal compose with --jobs sharding and --fast-forward unchanged.
#pragma once

#include <vector>

#include "leo/geodesy.hpp"
#include "util/units.hpp"

namespace slp::mobility {

struct Waypoint {
  leo::GeoPoint point;
  /// Cruise speed on the leg *leaving* this waypoint, m/s. A non-positive
  /// speed on a non-degenerate leg ends the trajectory at this waypoint
  /// (the vehicle parks; remaining waypoints are unreachable).
  double speed_mps = 0.0;
  /// Dwell at this waypoint before departing (rest stop, traffic light).
  Duration pause = Duration::zero();
};

class Trajectory {
 public:
  Trajectory() = default;

  [[nodiscard]] static Trajectory from_waypoints(std::vector<Waypoint> waypoints);

  struct State {
    leo::GeoPoint position;
    double heading_deg = 0.0;  ///< direction of travel (last known while paused)
    double speed_mps = 0.0;
    double distance_m = 0.0;  ///< along-route odometer
    bool moving = false;
    bool finished = false;  ///< past the final waypoint (position clamps there)
  };

  /// Kinematic state after `elapsed` time on the route. Clamps to the first
  /// waypoint for negative times and to the final reached waypoint after the
  /// route completes.
  [[nodiscard]] State state_at(Duration elapsed) const;

  [[nodiscard]] double total_distance_m() const { return total_distance_m_; }
  [[nodiscard]] Duration total_duration() const { return total_duration_; }
  /// True when the route never leaves its first waypoint (no travel legs).
  [[nodiscard]] bool stationary() const { return total_distance_m_ == 0.0; }
  [[nodiscard]] bool empty() const { return !has_start_; }

 private:
  struct Segment {
    Duration t0;        ///< elapsed time at segment start
    Duration dt;        ///< segment duration (> 0)
    double s0 = 0.0;    ///< odometer at segment start
    double length_m = 0.0;  ///< 0 for pauses
    leo::Vec3 a, b;     ///< unit ECEF endpoints (b == a for pauses)
    double angle_rad = 0.0;  ///< central angle a -> b
    leo::GeoPoint geo_a, geo_b;
    double speed_mps = 0.0;  ///< 0 for pauses
    double heading_deg = 0.0;  ///< initial bearing (recomputed along travel arcs)
    bool pause = false;
  };

  bool has_start_ = false;
  leo::GeoPoint start_;
  std::vector<Segment> segments_;
  double total_distance_m_ = 0.0;
  Duration total_duration_ = Duration::zero();
  State end_state_;
};

}  // namespace slp::mobility
