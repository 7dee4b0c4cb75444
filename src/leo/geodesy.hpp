// geodesy.hpp — Earth geometry for satellite links.
//
// A spherical Earth is accurate to ~0.3% in distance, far below the latency
// calibration tolerances of this reproduction, and keeps the math auditable.
#pragma once

#include <cmath>
#include <string>

#include "util/units.hpp"

namespace slp::leo {

inline constexpr double kEarthRadiusM = 6'371'000.0;
inline constexpr double kMuEarth = 3.986004418e14;        ///< gravitational parameter, m^3/s^2
inline constexpr double kEarthRotationRadS = 7.2921159e-5;
inline constexpr double kSpeedOfLightMps = 299'792'458.0;
/// Effective propagation speed in RF free space is c (unlike fiber's ~2c/3).
inline constexpr double kRfSpeedMps = kSpeedOfLightMps;

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend constexpr Vec3 operator+(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
  friend constexpr Vec3 operator-(Vec3 a, Vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
  friend constexpr Vec3 operator*(Vec3 a, double s) { return {a.x * s, a.y * s, a.z * s}; }
  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y + z * z); }
  [[nodiscard]] constexpr double dot(Vec3 o) const { return x * o.x + y * o.y + z * o.z; }
};

/// A point on (or above) the Earth surface.
struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
  double alt_m = 0.0;
};

[[nodiscard]] constexpr double deg_to_rad(double deg) { return deg * std::numbers::pi / 180.0; }
[[nodiscard]] constexpr double rad_to_deg(double rad) { return rad * 180.0 / std::numbers::pi; }

/// Earth-centred, Earth-fixed cartesian coordinates of a geographic point.
[[nodiscard]] Vec3 to_ecef(const GeoPoint& p);

/// Great-circle (surface) distance between two points, metres.
[[nodiscard]] double great_circle_distance_m(const GeoPoint& a, const GeoPoint& b);

/// Straight-line distance between a ground point and a position in ECEF.
[[nodiscard]] double slant_range_m(const GeoPoint& ground, const Vec3& sat_ecef);

/// Same, with the ground point already converted (hot visibility loops call
/// this thousands of times per tick against one fixed ground point; the
/// result is bit-identical to the GeoPoint overload).
[[nodiscard]] double slant_range_m(const Vec3& ground_ecef, const Vec3& sat_ecef);

/// Elevation angle (degrees above horizon) of `sat_ecef` seen from `ground`.
/// Negative if below the horizon.
[[nodiscard]] double elevation_deg(const GeoPoint& ground, const Vec3& sat_ecef);

/// Same, with the ground point already converted (bit-identical result).
[[nodiscard]] double elevation_deg(const Vec3& ground_ecef, const Vec3& sat_ecef);

/// One ground-to-position look, as elevation_deg and slant_range_m compute
/// it: callers that need both, or only an elevation gate, pay for one
/// difference vector and no asin until they ask for the angle.
struct SkyLook {
  double range_m = 0.0;  ///< bit-identical to slant_range_m
  double sin_el = 1.0;   ///< elevation's sine, unclamped; 1 at range 0
  /// Bit-identical to elevation_deg of the same two points.
  [[nodiscard]] double elevation_deg() const;
};

[[nodiscard]] SkyLook sky_look(const Vec3& ground_ecef, const Vec3& sat_ecef);

/// Decides `elevation_deg(ground, sat) >= min_deg` exactly, on the sine.
/// A look whose sine lies more than kSineBand above or below sin(min_deg)
/// is decided without an asin; only looks inside the band compute the
/// angle. The band dwarfs the rounding of sin, asin and the degree
/// conversions (a few ulp, ~1e-16), and asin's slope is at least 1, so a
/// sine outside it puts the angle at least 1e-9 rad on the same side of the
/// mask as the comparison of angles would. Masks at or beyond ±90° (where
/// the sine stops increasing) and NaN always take the exact comparison.
class ElevationMask {
 public:
  static constexpr double kSineBand = 1e-9;

  explicit ElevationMask(double min_deg);

  [[nodiscard]] bool admits(const SkyLook& look) const {
    if (look.sin_el > pass_above_) return true;
    if (look.sin_el < fail_below_) return false;
    return look.elevation_deg() >= min_deg_;
  }

 private:
  double min_deg_;
  double pass_above_;
  double fail_below_;
};

/// Inverse of to_ecef (spherical Earth): geographic coordinates of an ECEF
/// position. Longitude lands in [-180, 180].
[[nodiscard]] GeoPoint from_ecef(const Vec3& v);

/// Initial great-circle bearing from `from` toward `to`, degrees clockwise
/// from true north in [0, 360).
[[nodiscard]] double initial_bearing_deg(const GeoPoint& from, const GeoPoint& to);

/// Azimuth (degrees clockwise from true north, [0, 360)) of `sat_ecef` as
/// seen from `ground`. Together with elevation_deg this places a satellite
/// on the local sky dome, which is what heading-relative obstruction masks
/// (src/mobility/obstruction.hpp) consume.
[[nodiscard]] double azimuth_deg(const GeoPoint& ground, const Vec3& sat_ecef);

/// One-way propagation delay over a straight-line RF path.
[[nodiscard]] Duration rf_propagation_delay(double distance_m);

/// One-way delay of a terrestrial fiber path between two points, assuming a
/// typical path-stretch factor and 2/3 c in glass.
[[nodiscard]] Duration fiber_delay(const GeoPoint& a, const GeoPoint& b,
                                   double path_stretch = 1.7);

}  // namespace slp::leo
