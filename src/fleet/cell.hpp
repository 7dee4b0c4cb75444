// cell.hpp — H3-style geographic cells for shared-capacity accounting.
//
// Starlink serves users in fixed ground cells a couple of dozen kilometres
// across; every subscriber in a cell shares that cell's spectrum. We key the
// fleet's contention domains off an equal-area-ish latitude/longitude grid:
// rings of constant latitude height, each ring split into longitude bins
// whose count shrinks with cos(latitude) so cells keep roughly constant
// ground area toward the poles (the same trick H3/S2 resolutions play,
// without importing either library). Cell ids are plain integers, stable
// under merge ordering, and derived purely from leo::geodesy coordinates —
// no RNG, no state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "leo/geodesy.hpp"

namespace slp::fleet {

/// Opaque cell key: (latitude ring << 32) | longitude bin. Orderable so
/// per-cell merges fold in deterministic cell-id order.
using CellId = std::uint64_t;

/// Fixed-resolution cell grid. Two grids with the same cell_km map every
/// point to the same id; resolution is a pure construction parameter.
class CellGrid {
 public:
  /// `cell_km`: target cell edge in kilometres (Starlink ground cells are
  /// on the order of 24 km across).
  explicit CellGrid(double cell_km = 24.0);

  [[nodiscard]] double cell_km() const { return cell_km_; }

  /// Cell containing a ground point.
  [[nodiscard]] CellId cell_of(const leo::GeoPoint& p) const;

  /// Centre of a cell (the representative point used for the cell's
  /// satellite-visibility geometry).
  [[nodiscard]] leo::GeoPoint center_of(CellId cell) const {
    const int ring = static_cast<int>(cell >> 32);
    const int bin = static_cast<int>(cell & 0xFFFFFFFFull);
    const double lat = -90.0 + (static_cast<double>(ring) + 0.5) * 180.0 / rings_;
    const int bins = bins_in_ring(std::clamp(ring, 0, rings_ - 1));
    double lon = (static_cast<double>(bin) + 0.5) * 360.0 / bins;
    if (lon >= 180.0) lon -= 360.0;  // back to the conventional [-180, 180)
    return leo::GeoPoint{lat, lon, 0.0};
  }

  /// "r<ring>b<bin>" — stable human-readable key for logs and metrics.
  [[nodiscard]] static std::string to_string(CellId cell);

  // Ring/bin structure, exposed so placement can enumerate candidate cells
  // without round-tripping every lattice point through cell_of().
  [[nodiscard]] int rings() const { return rings_; }
  /// Longitude bins of `ring`, which must lie in [0, rings()).
  [[nodiscard]] int bins_in_ring(int ring) const {
    return ring_bins_[static_cast<std::size_t>(ring)];
  }
  [[nodiscard]] static CellId id_of(int ring, int bin) {
    return (static_cast<CellId>(ring) << 32) | static_cast<CellId>(bin);
  }
  /// Latitude ring containing `lat_deg` (clamped to the valid range).
  [[nodiscard]] int ring_of(double lat_deg) const;

  /// Geographic extent of a cell. Longitudes use the grid's internal
  /// [0, 360) convention — normalize before treating them as conventional
  /// [-180, 180) coordinates.
  struct Bounds {
    double lat_min = 0.0;
    double lat_max = 0.0;
    double lon_min = 0.0;  ///< [0, 360)
    double lon_max = 0.0;  ///< (0, 360]
  };
  [[nodiscard]] Bounds bounds_of(CellId cell) const;

 private:
  double cell_km_ = 24.0;
  int rings_ = 0;  ///< latitude rings covering [-90, 90]
  std::vector<int> ring_bins_;  ///< [ring]: longitude bins, filled once at construction
};

/// Two-level continental/planet hierarchy: the base grid keyed by ordinary
/// CellIds plus a coarse grid whose cells ("supercells") tile
/// `supercell_factor` base cells per edge. Aggregated contention accounting
/// lives at the supercell level (fleet.hpp); the mapping is pure geometry —
/// no RNG, no state — so promotion/demotion decisions are deterministic.
class HierarchicalGrid {
 public:
  explicit HierarchicalGrid(double cell_km = 24.0, int supercell_factor = 8);

  [[nodiscard]] const CellGrid& base() const { return base_; }
  [[nodiscard]] const CellGrid& coarse() const { return coarse_; }
  [[nodiscard]] int supercell_factor() const { return factor_; }

  /// Supercell containing a base cell (keyed off the base cell's centre):
  /// bit for bit coarse().cell_of(base().center_of(base_cell)), but with
  /// the coarse ring looked up per base ring and no longitude round trip.
  /// `base_cell` must be a cell of base(): a ring in [0, rings()) and a bin
  /// in [0, bins_in_ring(ring)).
  [[nodiscard]] CellId super_of(CellId base_cell) const;

  /// Tag bit distinguishing supercell keys from base-cell keys when both
  /// land in one stats::KeyedSamples (ring indices never reach bit 31, so
  /// bit 63 is always free).
  static constexpr CellId kAggregateKeyBit = 1ull << 63;

 private:
  CellGrid base_;
  CellGrid coarse_;
  int factor_ = 8;
  std::vector<int> super_ring_;  ///< [base ring]: coarse ring holding its centre latitude
};

}  // namespace slp::fleet
