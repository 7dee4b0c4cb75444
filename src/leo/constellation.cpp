#include "leo/constellation.hpp"

#include <cassert>
#include <cmath>

#include "obs/profile.hpp"

namespace slp::leo {

Constellation::Constellation(Config config) : config_{config} {
  assert(config_.num_planes > 0 && config_.sats_per_plane > 0);
  semi_major_m_ = kEarthRadiusM + config_.altitude_m;
  mean_motion_rad_s_ = std::sqrt(kMuEarth / (semi_major_m_ * semi_major_m_ * semi_major_m_));

  // Precompute every time-invariant term of the ephemeris. The expressions
  // below are verbatim from the previous per-call code (same literals, same
  // association), so each precomputed constant — and therefore every
  // position — is bit-identical to what the old path produced.
  const double incl = deg_to_rad(config_.inclination_deg);
  cos_incl_ = std::cos(incl);
  sin_incl_ = std::sin(incl);

  // Earth rotation moves the ECEF-frame node westward, and J2 nodal
  // regression precesses the planes (~-4.5 deg/day at 550 km / 53 deg).
  // Without precession the geometry repeats every sidereal day and
  // manufactures a spurious hour-of-day RTT pattern that the paper's Mood's
  // test (correctly) does not see.
  const double j2_rate = -1.5 * 1.08263e-3 *
                         (kEarthRadiusM / semi_major_m_) * (kEarthRadiusM / semi_major_m_) *
                         mean_motion_rad_s_ * cos_incl_;
  node_drift_rad_s_ = j2_rate - kEarthRotationRadS;

  plane_node0_rad_.resize(static_cast<std::size_t>(config_.num_planes));
  for (int plane = 0; plane < config_.num_planes; ++plane) {
    // Ascending node at t=0: planes spread over 360 deg.
    plane_node0_rad_[static_cast<std::size_t>(plane)] =
        deg_to_rad(config_.raan0_deg) +
        2.0 * std::numbers::pi * static_cast<double>(plane) / config_.num_planes;
  }

  theta0_rad_.resize(static_cast<std::size_t>(config_.num_planes) *
                     static_cast<std::size_t>(config_.sats_per_plane));
  for (int plane = 0; plane < config_.num_planes; ++plane) {
    for (int slot = 0; slot < config_.sats_per_plane; ++slot) {
      // In-plane true anomaly at t=0: slot spacing + Walker inter-plane
      // phasing (motion adds mean_motion * t at query time).
      const double slot_angle =
          2.0 * std::numbers::pi * static_cast<double>(slot) / config_.sats_per_plane;
      const double phase_angle = 2.0 * std::numbers::pi * config_.phase_factor *
                                 static_cast<double>(plane) /
                                 (config_.num_planes * config_.sats_per_plane);
      theta0_rad_[static_cast<std::size_t>(plane) * config_.sats_per_plane + slot] =
          slot_angle + phase_angle;
    }
  }
}

Duration Constellation::orbital_period() const {
  return Duration::from_seconds(2.0 * std::numbers::pi / mean_motion_rad_s_);
}

Vec3 Constellation::position_ecef(SatIndex sat, TimePoint t) const {
  assert(sat.plane >= 0 && sat.plane < config_.num_planes);
  assert(sat.slot >= 0 && sat.slot < config_.sats_per_plane);
  const double ts = t.to_seconds();

  const double theta =
      theta0_rad_[static_cast<std::size_t>(sat.plane) * config_.sats_per_plane + sat.slot] +
      mean_motion_rad_s_ * ts;
  const double raan = plane_node0_rad_[static_cast<std::size_t>(sat.plane)] +
                      node_drift_rad_s_ * ts;

  // Position in the orbital plane, then rotate by inclination and RAAN.
  const double xp = semi_major_m_ * std::cos(theta);
  const double yp = semi_major_m_ * std::sin(theta);
  const Vec3 in_plane{xp, yp * cos_incl_, yp * sin_incl_};
  const double cr = std::cos(raan);
  const double sr = std::sin(raan);
  return Vec3{in_plane.x * cr - in_plane.y * sr,
              in_plane.x * sr + in_plane.y * cr, in_plane.z};
}

template <typename F>
void Constellation::for_each_visible(const GeoPoint& ground, TimePoint t,
                                     double min_elevation_deg, int active_planes,
                                     F&& f) const {
  const int planes = clamp_planes(active_planes);
  const int sats_per_plane = config_.sats_per_plane;
  const double ts = t.to_seconds();
  const double motion = mean_motion_rad_s_ * ts;
  const double drift = node_drift_rad_s_ * ts;

  const Vec3 g = to_ecef(ground);
  const double r_g = g.norm();

  // Visibility cone. A satellite at orbit radius a is above elevation e from
  // a ground point at radius r only within central angle
  // λmax = acos((r/a)·cos e) − e of that point (spherical Earth, exact). The
  // margins keep every bound below conservative against FP rounding, so
  // culling can never change a result: surviving slots are evaluated with
  // exactly the expressions of the per-satellite reference.
  constexpr double kMarginRad = 1e-4;
  bool cull = false;
  double cos_lam_max = -1.0;
  Vec3 u{};
  if (r_g > 0.0 && r_g < semi_major_m_) {
    const double e_rad = deg_to_rad(min_elevation_deg);
    const double arg = (r_g / semi_major_m_) * std::cos(e_rad);
    if (arg > -1.0 && arg < 1.0) {
      const double lam_max = std::acos(arg) - e_rad + kMarginRad;
      if (lam_max > 0.0 && lam_max < std::numbers::pi / 2.0) {
        cull = true;
        cos_lam_max = std::cos(lam_max);
        u = g * (1.0 / r_g);
      }
    }
  }
  const double slot_step = 2.0 * std::numbers::pi / sats_per_plane;

  for (int plane = 0; plane < planes; ++plane) {
    const double raan = plane_node0_rad_[static_cast<std::size_t>(plane)] + drift;
    const double cr = std::cos(raan);
    const double sr = std::sin(raan);
    const double* theta0 =
        &theta0_rad_[static_cast<std::size_t>(plane) * sats_per_plane];
    const auto eval = [&](int slot) {
      const double theta = theta0[slot] + motion;
      const double xp = semi_major_m_ * std::cos(theta);
      const double yp = semi_major_m_ * std::sin(theta);
      const Vec3 in_plane{xp, yp * cos_incl_, yp * sin_incl_};
      const Vec3 pos{in_plane.x * cr - in_plane.y * sr,
                     in_plane.x * sr + in_plane.y * cr, in_plane.z};
      const double el = elevation_deg(g, pos);
      if (el >= min_elevation_deg) f(SatIndex{plane, slot}, el, slant_range_m(g, pos));
    };
    const auto eval_run = [&eval](int begin, int end) {
      for (int slot = begin; slot < end; ++slot) eval(slot);
    };
    if (!cull) {
      eval_run(0, sats_per_plane);
      continue;
    }

    // A satellite's direction is cos θ·P + sin θ·Q (P, Q: the plane's
    // in-plane axes), so u·s = R·cos(θ − φ) with R = |(u·P, u·Q)| and
    // φ = atan2(u·Q, u·P). R ≤ cos λmax proves the whole plane invisible;
    // otherwise only slots with |θ − φ| ≤ acos(cos λmax / R) can be. Slots
    // are evenly spaced from θ0[0], so that window maps to a slot range
    // without touching a single culled satellite.
    const double up = u.x * cr + u.y * sr;
    const double uq = (u.y * cr - u.x * sr) * cos_incl_ + u.z * sin_incl_;
    const double r_plane = std::sqrt(up * up + uq * uq);
    if (r_plane <= cos_lam_max) continue;
    const double half = std::acos(cos_lam_max / r_plane) + kMarginRad;
    const double rel =
        std::remainder(std::atan2(uq, up) - (theta0[0] + motion), 2.0 * std::numbers::pi);
    const int lo = static_cast<int>(std::ceil((rel - half) / slot_step));
    const int count = static_cast<int>(std::floor((rel + half) / slot_step)) - lo + 1;
    if (count >= sats_per_plane) {
      eval_run(0, sats_per_plane);
      continue;
    }
    if (count <= 0) continue;
    // A window that wraps past the last slot is two ascending runs, keeping
    // the callback order (plane, slot).
    const int first = ((lo % sats_per_plane) + sats_per_plane) % sats_per_plane;
    if (first + count <= sats_per_plane) {
      eval_run(first, first + count);
    } else {
      eval_run(0, first + count - sats_per_plane);
      eval_run(first, sats_per_plane);
    }
  }
}

std::vector<Constellation::VisibleSat> Constellation::visible_from(const GeoPoint& ground,
                                                                   TimePoint t,
                                                                   double min_elevation_deg,
                                                                   int active_planes) const {
  std::vector<VisibleSat> out;
  visible_from(ground, t, min_elevation_deg, active_planes, out);
  return out;
}

void Constellation::visible_from(const GeoPoint& ground, TimePoint t,
                                 double min_elevation_deg, int active_planes,
                                 std::vector<VisibleSat>& out) const {
  const obs::SectionTimer wall{obs::Section::kEphemeris};
  out.clear();
  for_each_visible(ground, t, min_elevation_deg, active_planes,
                   [&out](SatIndex sat, double el, double slant) {
                     out.push_back(VisibleSat{sat, el, slant});
                   });
}

int Constellation::count_visible(const GeoPoint& ground, TimePoint t,
                                 double min_elevation_deg, int active_planes) const {
  const obs::SectionTimer wall{obs::Section::kEphemeris};
  int count = 0;
  for_each_visible(ground, t, min_elevation_deg, active_planes,
                   [&count](SatIndex, double, double) { ++count; });
  return count;
}

std::optional<Constellation::VisibleSat> Constellation::best_visible(const GeoPoint& ground,
                                                                     TimePoint t,
                                                                     double min_elevation_deg,
                                                                     int active_planes) const {
  const obs::SectionTimer wall{obs::Section::kEphemeris};
  std::optional<VisibleSat> best;
  for_each_visible(ground, t, min_elevation_deg, active_planes,
                   [&best](SatIndex sat, double el, double slant) {
                     if (!best || el > best->elevation_deg) best = VisibleSat{sat, el, slant};
                   });
  return best;
}

std::vector<Gateway> default_european_gateways() {
  // Early Starlink gateways serving Benelux beta users; the paper observed
  // exit points in the Netherlands and Germany.
  return {
      Gateway{"aerzen-de", GeoPoint{52.05, 9.26, 0.0}},
      Gateway{"turnhout-be", GeoPoint{51.32, 4.95, 0.0}},
      Gateway{"gravelines-fr", GeoPoint{50.99, 2.13, 0.0}},
  };
}

std::vector<Gateway> default_global_gateways() {
  std::vector<Gateway> gws = default_european_gateways();
  // Gateways close to the testbed's non-European anchor metros, so every
  // multi-vantage terminal has a plausible bent-pipe exit nearby.
  gws.push_back(Gateway{"newyork-us", GeoPoint{41.07, -74.54, 0.0}});
  gws.push_back(Gateway{"fremont-us", GeoPoint{37.49, -121.93, 0.0}});
  gws.push_back(Gateway{"singapore-sg", GeoPoint{1.33, 103.70, 0.0}});
  return gws;
}

}  // namespace slp::leo
