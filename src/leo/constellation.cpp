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

  // Cone pre-test tables. Each is an evenly spaced angle sequence, filled by
  // angle addition from one sincos of its step (see kConeGuard).
  const auto spaced = [](double start, double step, int n) {
    std::vector<CosSin> table;
    table.reserve(static_cast<std::size_t>(n));
    const CosSin d{std::cos(step), std::sin(step)};
    CosSin r{std::cos(start), std::sin(start)};
    for (int k = 0; k < n; ++k) {
      table.push_back(r);
      r = CosSin{r.c * d.c - r.s * d.s, r.s * d.c + r.c * d.s};
    }
    return table;
  };
  const int planes = config_.num_planes;
  const int slots = config_.sats_per_plane;
  plane_node0_cs_ = spaced(deg_to_rad(config_.raan0_deg), 2.0 * std::numbers::pi / planes, planes);
  plane_phase_cs_ = spaced(0.0, 2.0 * std::numbers::pi * config_.phase_factor / (planes * slots),
                           planes);
  slot_offset_cs_ = spaced(0.0, 2.0 * std::numbers::pi / slots, slots);
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
  const ElevationMask mask{min_elevation_deg};

  // position_ecef's expressions, with the plane's exact RAAN sincos hoisted.
  const auto eval = [&](int plane, int slot, double cr, double sr) {
    const double theta =
        theta0_rad_[static_cast<std::size_t>(plane) * sats_per_plane + slot] + motion;
    const double xp = semi_major_m_ * std::cos(theta);
    const double yp = semi_major_m_ * std::sin(theta);
    const Vec3 in_plane{xp, yp * cos_incl_, yp * sin_incl_};
    const Vec3 pos{in_plane.x * cr - in_plane.y * sr,
                   in_plane.x * sr + in_plane.y * cr, in_plane.z};
    const SkyLook look = sky_look(g, pos);
    if (mask.admits(look)) f(SatIndex{plane, slot}, look, pos);
  };

  // Visibility cone. A satellite at orbit radius a is above elevation e from
  // a ground point at radius r only within central angle
  // λmax = acos((r/a)·cos e) − e of that point (spherical Earth, exact). The
  // margin keeps the bound conservative against the rounding of the
  // elevation itself.
  constexpr double kMarginRad = 1e-4;
  bool cull = false;
  double cos_lam_max = -1.0;
  if (r_g > 0.0 && r_g < semi_major_m_) {
    const double e_rad = deg_to_rad(min_elevation_deg);
    const double arg = (r_g / semi_major_m_) * std::cos(e_rad);
    if (arg > -1.0 && arg < 1.0) {
      const double lam_max = std::acos(arg) - e_rad + kMarginRad;
      if (lam_max > 0.0 && lam_max < std::numbers::pi / 2.0) {
        cull = true;
        cos_lam_max = std::cos(lam_max);
      }
    }
  }
  if (!cull) {
    for (int plane = 0; plane < planes; ++plane) {
      const double raan = plane_node0_rad_[static_cast<std::size_t>(plane)] + drift;
      const double cr = std::cos(raan);
      const double sr = std::sin(raan);
      for (int slot = 0; slot < sats_per_plane; ++slot) eval(plane, slot, cr, sr);
    }
    return;
  }

  // Cone pre-test. A satellite's direction is cos θ·P + sin θ·Q, with P, Q
  // the plane's in-plane axes at RAAN Ω, so u·s = (u·P)·cos θ + (u·Q)·sin θ.
  // Rotating u back by the node drift gives u·P and u·Q against the t=0
  // axes; writing θ = φ + α (φ the plane's slot-0 anomaly, α the slot's
  // offset) makes u·s = A·cos α + B·sin α with A, B per plane and cos α,
  // sin α from a table. kConeGuard absorbs the rounding this skips, so
  // every satellite in view passes, and in (plane, slot) order.
  const double pass = cos_lam_max - kConeGuard;
  const Vec3 u = g * (1.0 / r_g);
  const double cd = std::cos(drift);
  const double sd = std::sin(drift);
  const Vec3 w{u.x * cd + u.y * sd, u.y * cd - u.x * sd, u.z};
  const double cm = std::cos(motion);
  const double sm = std::sin(motion);
  for (int plane = 0; plane < planes; ++plane) {
    const CosSin node = plane_node0_cs_[static_cast<std::size_t>(plane)];
    const double up = w.x * node.c + w.y * node.s;
    const double uq = (w.y * node.c - w.x * node.s) * cos_incl_ + w.z * sin_incl_;
    // max over θ of u·s is |(u·P, u·Q)|: the whole plane is outside the cone.
    if (pass > 0.0 && up * up + uq * uq <= pass * pass) continue;
    const CosSin phase = plane_phase_cs_[static_cast<std::size_t>(plane)];
    const double c_phi = phase.c * cm - phase.s * sm;
    const double s_phi = phase.s * cm + phase.c * sm;
    const double a = up * c_phi + uq * s_phi;
    const double b = uq * c_phi - up * s_phi;
    double cr = 0.0;
    double sr = 0.0;
    bool have_raan = false;
    for (int slot = 0; slot < sats_per_plane; ++slot) {
      const CosSin offset = slot_offset_cs_[static_cast<std::size_t>(slot)];
      if (a * offset.c + b * offset.s <= pass) continue;
      if (!have_raan) {
        const double raan = plane_node0_rad_[static_cast<std::size_t>(plane)] + drift;
        cr = std::cos(raan);
        sr = std::sin(raan);
        have_raan = true;
      }
      eval(plane, slot, cr, sr);
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
  out.clear();
  for_each_visible(ground, t, min_elevation_deg, active_planes,
                   [&out](SatIndex sat, const SkyLook& look, const Vec3& pos) {
                     out.push_back(VisibleSat{sat, look.elevation_deg(), look.range_m, pos});
                   });
}

int Constellation::count_visible(const GeoPoint& ground, TimePoint t,
                                 double min_elevation_deg, int active_planes) const {
  const obs::SectionTimer wall{obs::Section::kEphemeris};
  int count = 0;
  for_each_visible(ground, t, min_elevation_deg, active_planes,
                   [&count](SatIndex, const SkyLook&, const Vec3&) { ++count; });
  return count;
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
