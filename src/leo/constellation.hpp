// constellation.hpp — Walker-delta LEO constellation kinematics.
//
// We model the Starlink Shell 1 deployment the paper measured against:
// ~1584 satellites at 550 km / 53° in 72 planes of 22. Orbits are circular;
// positions are propagated analytically (two-body, no perturbations), which
// is plenty for latency geometry over a measurement campaign.
#pragma once

#include <cstdint>
#include <string>
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
    Vec3 position;  ///< ECEF at the query time, bit-identical to position_ecef
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

 private:
  /// Guard of the cone pre-test in for_each_visible, in units of u·s (the
  /// cosine of the central angle between ground point and satellite). The
  /// pre-test reads each satellite's direction off rotated tables instead of
  /// the exact expressions, so it differs from the direction of the
  /// position it stands for by the rounding that the exact path applies
  /// and the tables skip: the anomaly sum theta0 + mean_motion·t, off by at
  /// most ulp(mean_motion·t)/2, the node sum, at most ulp(drift·t)/2, a few
  /// ulp of sin/cos and products (~1e-15), and the tables' angle addition,
  /// about 4e-16 per step (3e-14 after Shell 1's 72 planes). At the largest
  /// representable TimePoint (2^63 ns ≈ 9.22e9 s) Shell 1's anomaly reaches
  /// ~1.0e7 rad (half-ulp 9.3e-10) and its node drift ~6.8e5 rad (half-ulp
  /// 5.8e-11); any orbit above the surface stays below 2^24 and 2^20 rad,
  /// so its ulps are no larger. The error stays below 1.0e-9 for every
  /// TimePoint, and the guard exceeds it a thousandfold.
  static constexpr double kConeGuard = 1e-6;

  /// Calls f(SatIndex, SkyLook, ecef_position) for every satellite in the
  /// first `planes` planes above `min_elevation_deg`, in (plane, slot)
  /// order. When `ground` has a visibility cone (central angle λmax), a
  /// trig-free pre-test on approximate geometry keeps only the satellites
  /// with u·s > cos λmax − kConeGuard; those, and every satellite when
  /// there is no cone, are evaluated with position_ecef's exact expressions
  /// and gated by ElevationMask. Culled satellites cost a multiply-add.
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

  // Cone pre-test tables, built in the constructor rather than lazily
  // because fleet shards query one shared const Constellation from pool
  // workers. Each query rotates them by one sincos of the node drift and
  // one of the anomaly advance.
  struct CosSin {
    double c = 1.0;
    double s = 0.0;
  };
  std::vector<CosSin> plane_node0_cs_;  ///< per plane: plane_node0_rad_
  std::vector<CosSin> plane_phase_cs_;  ///< per plane: theta0 of slot 0 (Walker phase)
  std::vector<CosSin> slot_offset_cs_;  ///< per slot: 2π·slot/S, the in-plane spacing
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
