#include "mobility/routes.hpp"

#include "leo/places.hpp"

namespace slp::mobility {

const ObstructionSegment* Route::segment_at(double distance_m) const {
  const int idx = segment_index_at(distance_m);
  return idx < 0 ? nullptr : &obstructions[static_cast<std::size_t>(idx)];
}

int Route::segment_index_at(double distance_m) const {
  for (std::size_t i = 0; i < obstructions.size(); ++i) {
    if (distance_m >= obstructions[i].from_m && distance_m < obstructions[i].to_m) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace routes {

namespace {

constexpr double kHighwayMps = 33.3;  // ~120 km/h
constexpr double kRuralMps = 16.7;    // ~60 km/h

// Intermediate road points (not in the anchor gazetteer).
constexpr leo::GeoPoint kLeuven{50.879, 4.701, 0.0};
constexpr leo::GeoPoint kSintTruiden{50.816, 5.186, 0.0};
constexpr leo::GeoPoint kCourtSaintEtienne{50.634, 4.568, 0.0};
constexpr leo::GeoPoint kGembloux{50.561, 4.698, 0.0};

}  // namespace

Route highway() {
  Route r;
  r.name = "highway";
  r.trajectory = Trajectory::from_waypoints({
      {leo::places::kBrussels, kHighwayMps, Duration::zero()},
      {kLeuven, kHighwayMps, Duration::zero()},
      {kSintTruiden, kHighwayMps, Duration::zero()},
      {leo::places::kLiege, 0.0, Duration::zero()},
  });
  // Urban canyon leaving Brussels: buildings flank both sides of the road.
  const ObstructionMask canyon{{ObstructionMask::Sector{20.0, 160.0, 50.0},
                                ObstructionMask::Sector{200.0, 340.0, 50.0}}};
  // Motorway tree lines hug one shoulder at a time.
  const ObstructionMask trees_right = ObstructionMask::sector(60.0, 120.0, 42.0);
  const ObstructionMask trees_left = ObstructionMask::sector(240.0, 300.0, 42.0);
  const ObstructionMask trees_both{{ObstructionMask::Sector{60.0, 120.0, 36.0},
                                    ObstructionMask::Sector{240.0, 300.0, 36.0}}};
  r.obstructions = {
      {0.0, 4'000.0, canyon, "urban-canyon"},
      {8'000.0, 30'000.0, trees_right, "tree-line"},
      {30'000.0, 30'600.0, ObstructionMask::tunnel(), "tunnel"},
      {30'600.0, 55'000.0, trees_left, "tree-line"},
      {55'000.0, 55'400.0, ObstructionMask::tunnel(), "tunnel"},
      {55'400.0, 80'000.0, trees_both, "tree-line"},
  };
  return r;
}

Route rural() {
  Route r;
  r.name = "rural";
  // A country loop with a rest stop: slow, open sky, back roads.
  r.trajectory = Trajectory::from_waypoints({
      {leo::places::kLouvainLaNeuve, kRuralMps, Duration::zero()},
      {kCourtSaintEtienne, kRuralMps, Duration::seconds(90)},
      {kGembloux, kRuralMps, Duration::zero()},
      {leo::places::kLouvainLaNeuve, 0.0, Duration::zero()},
  });
  return r;
}

std::optional<Route> lookup(std::string_view name) {
  if (name == "highway") return highway();
  if (name == "rural") return rural();
  return std::nullopt;
}

}  // namespace routes

}  // namespace slp::mobility
