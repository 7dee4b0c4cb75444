// routes.hpp — named road-trip routes: a trajectory plus obstruction regimes
// keyed by along-route distance.
//
// Routes are pure data (no RNG, no clocks), so the same name always yields
// the same motion — the `move` scenario directive and the --route bench flag
// are as seed-independent as rain fronts. The built-in pair deliberately
// contrasts the two regimes the in-motion measurement papers distinguish:
// a fast, obstructed highway run and a slow, open-sky rural loop.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mobility/obstruction.hpp"
#include "mobility/trajectory.hpp"

namespace slp::mobility {

/// An obstruction regime over a half-open odometer window [from_m, to_m).
struct ObstructionSegment {
  double from_m = 0.0;
  double to_m = 0.0;
  ObstructionMask mask;
  std::string label;  ///< "tunnel", "tree-line", ... (trace annotations)
};

struct Route {
  std::string name;
  Trajectory trajectory;
  /// Non-overlapping, first match wins. Distances outside every window mean
  /// open sky.
  std::vector<ObstructionSegment> obstructions;

  [[nodiscard]] const ObstructionSegment* segment_at(double distance_m) const;
  [[nodiscard]] int segment_index_at(double distance_m) const;
  /// A trivial route never changes anything observable: no motion, no masks.
  [[nodiscard]] bool trivial() const {
    return trajectory.stationary() && obstructions.empty();
  }
};

namespace routes {

/// E40-style Brussels -> Liege run: ~120 km/h, tree lines along the
/// shoulders, two full-gate tunnels, an urban canyon leaving the city.
[[nodiscard]] Route highway();

/// Rural loop around Louvain-la-Neuve: ~60 km/h, open sky, one rest stop.
[[nodiscard]] Route rural();

/// Looks a built-in route up by name; nullopt for unknown names.
[[nodiscard]] std::optional<Route> lookup(std::string_view name);

}  // namespace routes

}  // namespace slp::mobility
