#include "leo/geodesy.hpp"

#include <algorithm>
#include <limits>

namespace slp::leo {

Vec3 to_ecef(const GeoPoint& p) {
  const double lat = deg_to_rad(p.lat_deg);
  const double lon = deg_to_rad(p.lon_deg);
  const double r = kEarthRadiusM + p.alt_m;
  return Vec3{r * std::cos(lat) * std::cos(lon), r * std::cos(lat) * std::sin(lon),
              r * std::sin(lat)};
}

double great_circle_distance_m(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  // Haversine formula.
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double slant_range_m(const GeoPoint& ground, const Vec3& sat_ecef) {
  return (sat_ecef - to_ecef(ground)).norm();
}

double slant_range_m(const Vec3& ground_ecef, const Vec3& sat_ecef) {
  return (sat_ecef - ground_ecef).norm();
}

double elevation_deg(const GeoPoint& ground, const Vec3& sat_ecef) {
  return elevation_deg(to_ecef(ground), sat_ecef);
}

double elevation_deg(const Vec3& ground_ecef, const Vec3& sat_ecef) {
  return sky_look(ground_ecef, sat_ecef).elevation_deg();
}

SkyLook sky_look(const Vec3& ground_ecef, const Vec3& sat_ecef) {
  const Vec3& g = ground_ecef;
  const Vec3 to_sat = sat_ecef - g;
  const double range = to_sat.norm();
  if (range == 0.0) return SkyLook{};
  // sin(elevation) = (up-vector . to_sat) / |to_sat|, with up = g / |g|.
  return SkyLook{range, g.dot(to_sat) / (g.norm() * range)};
}

double SkyLook::elevation_deg() const {
  if (range_m == 0.0) return 90.0;
  return rad_to_deg(std::asin(std::clamp(sin_el, -1.0, 1.0)));
}

ElevationMask::ElevationMask(double min_deg)
    : min_deg_{min_deg},
      pass_above_{std::numeric_limits<double>::infinity()},
      fail_below_{-std::numeric_limits<double>::infinity()} {
  if (std::abs(min_deg) < 90.0) {
    const double sin_min = std::sin(deg_to_rad(min_deg));
    pass_above_ = sin_min + kSineBand;
    fail_below_ = sin_min - kSineBand;
  }
}

GeoPoint from_ecef(const Vec3& v) {
  const double r = v.norm();
  if (r == 0.0) return GeoPoint{};
  const double lat = std::asin(std::clamp(v.z / r, -1.0, 1.0));
  const double lon = std::atan2(v.y, v.x);
  return GeoPoint{rad_to_deg(lat), rad_to_deg(lon), r - kEarthRadiusM};
}

double initial_bearing_deg(const GeoPoint& from, const GeoPoint& to) {
  const double lat1 = deg_to_rad(from.lat_deg);
  const double lat2 = deg_to_rad(to.lat_deg);
  const double dlon = deg_to_rad(to.lon_deg - from.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x =
      std::cos(lat1) * std::sin(lat2) - std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  if (x == 0.0 && y == 0.0) return 0.0;  // coincident or antipodal: bearing undefined
  const double deg = rad_to_deg(std::atan2(y, x));
  return deg < 0.0 ? deg + 360.0 : deg;
}

double azimuth_deg(const GeoPoint& ground, const Vec3& sat_ecef) {
  const double lat = deg_to_rad(ground.lat_deg);
  const double lon = deg_to_rad(ground.lon_deg);
  const Vec3 d = sat_ecef - to_ecef(ground);
  // Local ENU basis at the ground point (spherical Earth).
  const Vec3 east{-std::sin(lon), std::cos(lon), 0.0};
  const Vec3 north{-std::sin(lat) * std::cos(lon), -std::sin(lat) * std::sin(lon), std::cos(lat)};
  const double e = d.dot(east);
  const double n = d.dot(north);
  if (e == 0.0 && n == 0.0) return 0.0;  // directly overhead: azimuth undefined
  const double deg = rad_to_deg(std::atan2(e, n));
  return deg < 0.0 ? deg + 360.0 : deg;
}

Duration rf_propagation_delay(double distance_m) {
  return Duration::from_seconds(distance_m / kRfSpeedMps);
}

Duration fiber_delay(const GeoPoint& a, const GeoPoint& b, double path_stretch) {
  const double path_m = great_circle_distance_m(a, b) * path_stretch;
  const double glass_speed = kSpeedOfLightMps * 2.0 / 3.0;
  return Duration::from_seconds(path_m / glass_speed);
}

}  // namespace slp::leo
