#include "fleet/cell.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace slp::fleet {

namespace {

/// Kilometres per degree of latitude on the spherical Earth used throughout
/// leo::geodesy (2 * pi * R / 360).
const double kKmPerDegLat = 2.0 * std::numbers::pi * leo::kEarthRadiusM / 1000.0 / 360.0;

}  // namespace

CellGrid::CellGrid(double cell_km) : cell_km_{std::max(1.0, cell_km)} {
  rings_ = std::max(1, static_cast<int>(std::ceil(180.0 * kKmPerDegLat / cell_km_)));
  // Ring circumference shrinks with cos(latitude at the ring centre); keep
  // the bin width close to cell_km on the ground.
  ring_bins_.resize(static_cast<std::size_t>(rings_));
  for (int ring = 0; ring < rings_; ++ring) {
    const double lat_deg = -90.0 + (static_cast<double>(ring) + 0.5) * 180.0 / rings_;
    const double circumference_km = 360.0 * kKmPerDegLat * std::cos(leo::deg_to_rad(lat_deg));
    ring_bins_[static_cast<std::size_t>(ring)] =
        std::max(1, static_cast<int>(std::round(circumference_km / cell_km_)));
  }
}

CellId CellGrid::cell_of(const leo::GeoPoint& p) const {
  const double lat = std::clamp(p.lat_deg, -90.0, 90.0);
  // Normalize longitude into [0, 360).
  double lon = std::fmod(p.lon_deg, 360.0);
  if (lon < 0.0) lon += 360.0;
  int ring = static_cast<int>((lat + 90.0) / 180.0 * rings_);
  ring = std::clamp(ring, 0, rings_ - 1);
  const int bins = bins_in_ring(ring);
  int bin = static_cast<int>(lon / 360.0 * bins);
  bin = std::clamp(bin, 0, bins - 1);
  return (static_cast<CellId>(ring) << 32) | static_cast<CellId>(bin);
}

int CellGrid::ring_of(double lat_deg) const {
  const double lat = std::clamp(lat_deg, -90.0, 90.0);
  return std::clamp(static_cast<int>((lat + 90.0) / 180.0 * rings_), 0, rings_ - 1);
}

CellGrid::Bounds CellGrid::bounds_of(CellId cell) const {
  const int ring = std::clamp(static_cast<int>(cell >> 32), 0, rings_ - 1);
  const int bins = bins_in_ring(ring);
  const int bin = std::clamp(static_cast<int>(cell & 0xFFFFFFFFull), 0, bins - 1);
  Bounds b;
  b.lat_min = -90.0 + static_cast<double>(ring) * 180.0 / rings_;
  b.lat_max = -90.0 + static_cast<double>(ring + 1) * 180.0 / rings_;
  b.lon_min = static_cast<double>(bin) * 360.0 / bins;
  b.lon_max = static_cast<double>(bin + 1) * 360.0 / bins;
  return b;
}

std::string CellGrid::to_string(CellId cell) {
  std::string out = "r";
  out += std::to_string(cell >> 32);
  out += 'b';
  out += std::to_string(cell & 0xFFFFFFFFull);
  return out;
}

HierarchicalGrid::HierarchicalGrid(double cell_km, int supercell_factor)
    : base_{cell_km},
      coarse_{std::max(1.0, cell_km) * std::max(1, supercell_factor)},
      factor_{std::max(1, supercell_factor)} {
  super_ring_.resize(static_cast<std::size_t>(base_.rings()));
  for (int ring = 0; ring < base_.rings(); ++ring) {
    super_ring_[static_cast<std::size_t>(ring)] =
        coarse_.ring_of(base_.center_of(CellGrid::id_of(ring, 0)).lat_deg);
  }
}

CellId HierarchicalGrid::super_of(CellId base_cell) const {
  const int ring = static_cast<int>(base_cell >> 32);
  const int bin = static_cast<int>(base_cell & 0xFFFFFFFFull);
  assert(ring >= 0 && ring < base_.rings() && bin >= 0 && bin < base_.bins_in_ring(ring));
  // center_of's longitude before its shift into [-180, 180). cell_of's
  // fmod and += 360 would undo that shift exactly: lon - 360 is exact
  // (Sterbenz), the fmod leaves a value under 360 in magnitude as it is,
  // and adding 360 back lands on lon, which is representable.
  const double lon = (static_cast<double>(bin) + 0.5) * 360.0 / base_.bins_in_ring(ring);
  const int super_ring = super_ring_[static_cast<std::size_t>(ring)];
  const int super_bins = coarse_.bins_in_ring(super_ring);
  const int super_bin = std::clamp(static_cast<int>(lon / 360.0 * super_bins), 0, super_bins - 1);
  return CellGrid::id_of(super_ring, super_bin);
}

}  // namespace slp::fleet
