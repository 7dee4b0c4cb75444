// constellation.hpp — Walker-delta LEO constellation kinematics.
//
// We model the Starlink Shell 1 deployment the paper measured against:
// ~1584 satellites at 550 km / 53° in 72 planes of 22. Orbits are circular;
// positions are propagated analytically (two-body, no perturbations), which
// is plenty for latency geometry over a measurement campaign.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "leo/geodesy.hpp"
#include "util/units.hpp"

namespace slp::leo {

struct SatIndex {
  int plane = -1;
  int slot = -1;  ///< position within the plane
  [[nodiscard]] bool valid() const { return plane >= 0 && slot >= 0; }
  friend bool operator==(SatIndex, SatIndex) = default;
};

class Constellation {
 public:
  struct Config {
    double altitude_m = 550'000.0;
    double inclination_deg = 53.0;
    int num_planes = 72;
    int sats_per_plane = 22;
    /// Walker phasing factor F: inter-plane phase offset = F * 360 / (P*S).
    int phase_factor = 17;
    /// RAAN of plane 0 at t=0 (degrees).
    double raan0_deg = 0.0;
  };

  explicit Constellation(Config config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] int total_satellites() const {
    return config_.num_planes * config_.sats_per_plane;
  }
  [[nodiscard]] Duration orbital_period() const;

  /// ECEF position of a satellite at simulation time t.
  [[nodiscard]] Vec3 position_ecef(SatIndex sat, TimePoint t) const;

  struct VisibleSat {
    SatIndex sat;
    double elevation_deg = 0.0;
    double slant_range_m = 0.0;
  };

  /// All satellites above `min_elevation_deg` from `ground` at time t,
  /// restricted to the first `active_planes` planes (constellation
  /// densification epochs enable more planes). Pass 0 for all planes.
  [[nodiscard]] std::vector<VisibleSat> visible_from(const GeoPoint& ground, TimePoint t,
                                                     double min_elevation_deg,
                                                     int active_planes = 0) const;

  /// Buffer-reusing overload for periodic callers (the 15 s handover tick):
  /// clears `out` and fills it with the same result as the returning
  /// overload, without allocating once `out` has warmed up.
  void visible_from(const GeoPoint& ground, TimePoint t, double min_elevation_deg,
                    int active_planes, std::vector<VisibleSat>& out) const;

  /// Number of satellites visible_from would return, without materializing
  /// them (observability probes only need the count).
  [[nodiscard]] int count_visible(const GeoPoint& ground, TimePoint t,
                                  double min_elevation_deg, int active_planes = 0) const;

  /// The visible satellite with the highest elevation, if any.
  [[nodiscard]] std::optional<VisibleSat> best_visible(const GeoPoint& ground, TimePoint t,
                                                       double min_elevation_deg,
                                                       int active_planes = 0) const;

 private:
  /// Calls f(SatIndex, elevation_deg, ecef_position) for every satellite in
  /// the first `planes` planes above `min_elevation_deg`, in (plane, slot)
  /// order. Whole planes whose orbital band cannot clear the elevation mask
  /// from `ground` are skipped, and in the rest only the window of slots
  /// that can be in view is evaluated: culled satellites cost nothing.
  template <typename F>
  void for_each_visible(const GeoPoint& ground, TimePoint t, double min_elevation_deg,
                        int active_planes, F&& f) const;

  [[nodiscard]] int clamp_planes(int active_planes) const {
    return (active_planes <= 0 || active_planes > config_.num_planes) ? config_.num_planes
                                                                      : active_planes;
  }

  Config config_;
  double mean_motion_rad_s_;  ///< orbital angular velocity
  double semi_major_m_;

  // Time-invariant ephemeris constants, precomputed at construction so the
  // per-query work is one sincos of each time-dependent angle. All values
  // are produced by the exact expressions the original per-call code used,
  // keeping every position bit-identical.
  double cos_incl_ = 1.0;
  double sin_incl_ = 0.0;
  double node_drift_rad_s_ = 0.0;        ///< d(RAAN)/dt: J2 regression − Earth rotation
  std::vector<double> plane_node0_rad_;  ///< RAAN of each plane at t=0
  std::vector<double> theta0_rad_;       ///< [plane*S+slot]: slot + Walker phase angle
};

/// The paper's ground segment: gateways the Belgian beta service used, with
/// the two exit PoPs (Netherlands & Germany) the authors observed.
struct Gateway {
  std::string name;
  GeoPoint location;
};

[[nodiscard]] std::vector<Gateway> default_european_gateways();

/// The European trio plus gateways near the testbed's overseas anchors
/// (New York, Fremont, Singapore), for multi-vantage campaigns that span
/// the paper's full anchor set.
[[nodiscard]] std::vector<Gateway> default_global_gateways();

}  // namespace slp::leo
