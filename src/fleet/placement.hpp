// placement.hpp — deterministic, seed-derived terminal placement.
//
// Where do N user terminals live? Real subscriber bases cluster around
// population centres with a thin rural tail, and the follow-up measurement
// studies ("A Multifaceted Look at Starlink Performance", "Democratizing LEO
// Satellite Network Measurement") sample exactly that mixture. We reproduce
// it with a two-component density:
//
//   * `urban_fraction` of the fleet follows population-weighted Gaussian
//     plumes of `urban_sigma_km` around the configured centres;
//   * the rest fills the rural bounding box uniformly.
//
// generate() sums that density into one flat, cell-id ordered sequence of
// per-cell masses (CellMass): the plumes' contributions sorted by cell,
// then merged with the rural box, whose cells already come in id order.
// Every step after it walks that sequence, so it is deterministic by
// construction and pays per candidate cell, with no per-cell allocation.
//
// The representation is deliberately *lazy*: generate() apportions the N
// terminals into per-cell counts (largest-remainder over the per-cell
// density mass, jittered per seed), assigns each cell a contiguous id range
// in cell-id order, and stops there — O(#populated cells) memory, never
// O(N). Concrete terminal coordinates only exist when a cell is
// materialize()d, drawn from that cell's own seed-derived stream, so a
// million-terminal continent where most cells are aggregated analytically
// (fleet.hpp) costs memory proportional to the cells actually simulated.
// Every query is bit-identical regardless of which cells are materialized,
// in what order, or on which thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/cell.hpp"
#include "leo/geodesy.hpp"
#include "util/rng.hpp"

namespace slp::fleet {

using TerminalId = std::uint32_t;

/// One weighted population centre for the urban component.
struct PopulationCenter {
  std::string name;
  leo::GeoPoint location;
  double weight = 1.0;  ///< relative draw probability (~population)
};

/// The default centres: the paper's Belgian/Dutch anchor cities plus the
/// Louvain-la-Neuve vantage itself, weighted by metro population.
[[nodiscard]] std::vector<PopulationCenter> default_population_centers();

/// Continental-scale centres: ~40 European metro areas weighted by
/// population (millions), for million-terminal campaigns.
[[nodiscard]] std::vector<PopulationCenter> european_population_centers();

class Placement {
 public:
  struct Config {
    int terminals = 0;               ///< background terminals to place
    double cell_km = 24.0;           ///< CellGrid resolution
    double urban_fraction = 0.70;    ///< share drawn around population centres
    double urban_sigma_km = 18.0;    ///< Gaussian scatter around a centre
    /// Rural fill bounding box; defaults cover ~180 km around the vantage.
    double lat_min = 49.8;
    double lat_max = 51.6;
    double lon_min = 3.0;
    double lon_max = 6.2;
    std::vector<PopulationCenter> centers;  ///< empty = default_population_centers()
  };

  /// Continental preset: the European bounding box (36-60N, -10..32E) with
  /// european_population_centers() and a metro-scale sigma. `terminals` is
  /// left at 0 for the caller to fill.
  [[nodiscard]] static Config continental_europe();

  /// One populated cell: `count` terminals with the contiguous id range
  /// [first, first + count). Ranges are assigned in cell-id order, so both
  /// ids and cells ascend together.
  struct CellRange {
    CellId cell = 0;
    TerminalId first = 0;
    std::uint32_t count = 0;
  };

  struct Terminal {
    TerminalId id = 0;
    leo::GeoPoint location;
    CellId cell = 0;
  };

  /// Apportions `config.terminals` terminals into per-cell counts; `rng`
  /// should be a label-forked stream (e.g. sim.fork_rng("fleet/placement"))
  /// so placement never perturbs other components. O(#candidate cells);
  /// draws exactly one value from `rng` (the per-cell stream base).
  [[nodiscard]] static Placement generate(const Config& config, Rng rng);

  /// One candidate cell's density mass.
  struct CellMass {
    CellId cell = 0;
    double mass = 0.0;
  };

  /// generate()'s largest-remainder step: floors every cell's quota of
  /// `terminals` (proportional to its mass), then hands the leftover
  /// terminals to the largest fractional parts (ties to the lower cell id),
  /// so the counts sum to exactly `terminals`. Returns the cells with a
  /// nonzero count as contiguous id ranges in cell-id order. `mass` must
  /// be non-empty, strictly cell-id ascending, with a positive total.
  [[nodiscard]] static std::vector<CellRange> apportion(std::vector<CellMass> mass,
                                                        std::uint32_t terminals);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const CellGrid& grid() const { return grid_; }
  /// Populated cells, cell-id ordered.
  [[nodiscard]] const std::vector<CellRange>& cells() const { return cells_; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] std::uint32_t total_terminals() const { return total_; }
  /// Null for cells with no terminals.
  [[nodiscard]] const CellRange* find(CellId cell) const;

  /// Materializes one cell's terminals on demand: coordinates are drawn
  /// uniformly within the cell from a stream keyed by (placement seed,
  /// cell id) — O(count), independent of every other cell, and identical
  /// however often or late it is called.
  [[nodiscard]] std::vector<Terminal> materialize(const CellRange& range) const;
  [[nodiscard]] std::vector<Terminal> materialize(CellId cell) const;

 private:
  Placement(Config config, CellGrid grid)
      : config_{std::move(config)}, grid_{std::move(grid)} {}

  Config config_;
  CellGrid grid_;
  std::uint64_t stream_seed_ = 0;
  std::vector<CellRange> cells_;  ///< cell-id ordered, counts > 0
  std::uint32_t total_ = 0;
};

}  // namespace slp::fleet
