#include "fleet/placement.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>
#include <utility>

#include "fleet/demand.hpp"
#include "leo/places.hpp"

namespace slp::fleet {

namespace {

/// Kilometres per degree of latitude on the spherical Earth used throughout
/// leo::geodesy (2 * pi * R / 360).
const double kKmPerDegLat = 2.0 * std::numbers::pi * leo::kEarthRadiusM / 1000.0 / 360.0;

// Sub-stream labels: the per-cell count jitter and the per-cell coordinate
// streams must not alias each other (or the demand streams, which hash the
// fleet's own seed base).
constexpr std::uint64_t kJitterStream = 0x9C1Aull;
constexpr std::uint64_t kPositionStream = 0x705Eull;

[[nodiscard]] double wrap_deg180(double deg) {
  double d = std::fmod(deg + 180.0, 360.0);
  if (d < 0.0) d += 360.0;
  return d - 180.0;
}

/// Appends one centre's Gaussian plume, normalized to `share`, to the
/// density contributions. Candidate cells are enumerated directly on the
/// ring/bin lattice within 4 sigma of the centre; a narrow ring can list a
/// cell twice, and each listing is its own contribution.
void add_urban_mass(const CellGrid& grid, const PopulationCenter& center, double share,
                    double sigma_km, std::vector<Placement::CellMass>& mass) {
  if (share <= 0.0 || sigma_km <= 0.0) return;
  const double reach_km = 4.0 * sigma_km;
  const int r0 = grid.ring_of(center.location.lat_deg - reach_km / kKmPerDegLat);
  const int r1 = grid.ring_of(center.location.lat_deg + reach_km / kKmPerDegLat);
  double lon0 = std::fmod(center.location.lon_deg, 360.0);
  if (lon0 < 0.0) lon0 += 360.0;

  const std::size_t plume = mass.size();
  for (int ring = r0; ring <= r1; ++ring) {
    const int bins = grid.bins_in_ring(ring);
    const double lat = -90.0 + (static_cast<double>(ring) + 0.5) * 180.0 / grid.rings();
    // center_of's latitude, so one north offset serves the whole ring, and
    // a ring whose offset alone exceeds the reach lists no cell.
    const double north_km = (lat - center.location.lat_deg) * kKmPerDegLat;
    if (north_km * north_km > reach_km * reach_km) continue;
    const double km_per_deg_lon =
        kKmPerDegLat * std::max(0.01, std::cos(leo::deg_to_rad(lat)));
    const double bin_km = km_per_deg_lon * 360.0 / bins;
    const int span = std::min(bins / 2, static_cast<int>(std::ceil(reach_km / bin_km)) + 1);
    const int center_bin = static_cast<int>(lon0 / 360.0 * bins) % bins;
    for (int db = -span; db <= span; ++db) {
      const int bin = ((center_bin + db) % bins + bins) % bins;
      const CellId id = CellGrid::id_of(ring, bin);
      const double east_km =
          wrap_deg180(grid.center_of(id).lon_deg - center.location.lon_deg) * km_per_deg_lon;
      const double d2 = north_km * north_km + east_km * east_km;
      if (d2 > reach_km * reach_km) continue;
      mass.push_back({id, std::exp(-d2 / (2.0 * sigma_km * sigma_km))});
    }
  }
  double total = 0.0;
  for (std::size_t i = plume; i < mass.size(); ++i) total += mass[i].mass;
  if (total <= 0.0) {
    mass.resize(plume);
    mass.push_back({grid.cell_of(center.location), share});
    return;
  }
  for (std::size_t i = plume; i < mass.size(); ++i) mass[i].mass = share * mass[i].mass / total;
}

/// The cells whose centre lies in the rural bounding box, in ascending id
/// order; the rural share spreads uniformly over them (cells are
/// near-equal-area, so per-cell uniform is per-area uniform to first order).
std::vector<CellId> rural_cells(const CellGrid& grid, const Placement::Config& cfg) {
  std::vector<CellId> box;
  if (cfg.lat_max <= cfg.lat_min || cfg.lon_max <= cfg.lon_min) return box;
  const int r0 = grid.ring_of(cfg.lat_min);
  const int r1 = grid.ring_of(cfg.lat_max);
  // A bin's centre lies at (bin + 0.5) * 360 / bins in the grid's [0, 360)
  // convention, shifted by -360 from 180 on. So the box's part east of 0
  // and its part west of 0 are each one run of bins; visit only those
  // (widened by a bin against rounding) and let center_of decide.
  const double east_lo = std::max(cfg.lon_min, 0.0);
  const double east_hi = std::min(cfg.lon_max, 180.0);
  const double west_lo = std::max(cfg.lon_min + 360.0, 180.0);
  const double west_hi = std::min(cfg.lon_max + 360.0, 360.0);
  for (int ring = r0; ring <= r1; ++ring) {
    const int bins = grid.bins_in_ring(ring);
    const auto first_bin = [bins](double lon) {
      return std::max(0, static_cast<int>(std::floor(lon / 360.0 * bins - 0.5)) - 1);
    };
    const auto last_bin = [bins](double lon) {
      return std::min(bins - 1, static_cast<int>(std::ceil(lon / 360.0 * bins - 0.5)) + 1);
    };
    int end = 0;  // bins below it were visited
    const auto visit = [&](double lo, double hi) {
      if (lo > hi) return;
      const int last = last_bin(hi);
      for (int bin = std::max(end, first_bin(lo)); bin <= last; ++bin) {
        const CellId id = CellGrid::id_of(ring, bin);
        const leo::GeoPoint cc = grid.center_of(id);
        if (cc.lon_deg < cfg.lon_min || cc.lon_deg > cfg.lon_max) continue;
        box.push_back(id);
      }
      end = std::max(end, last + 1);
    };
    visit(east_lo, east_hi);
    visit(west_lo, west_hi);
  }
  return box;
}

/// Sums every cell's contributions: the urban ones in the order they were
/// appended, then the rural one, starting from 0.0, so each cell's mass is
/// the same double an id-keyed accumulator (mass[id] += ...) would hold.
/// The id-ordered `box` cells share `rural_share` evenly. A listed cell
/// stays even when its mass is 0.
std::vector<Placement::CellMass> fold_by_cell(std::vector<Placement::CellMass> urban,
                                              std::vector<CellId> box, double rural_share) {
  const double per_cell = box.empty() ? 0.0 : rural_share / static_cast<double>(box.size());
  std::stable_sort(urban.begin(), urban.end(),
                   [](const Placement::CellMass& a, const Placement::CellMass& b) {
                     return a.cell < b.cell;
                   });
  std::vector<Placement::CellMass> mass;
  mass.reserve(urban.size() + box.size());
  std::size_t u = 0;
  std::size_t r = 0;
  while (u < urban.size() || r < box.size()) {
    const CellId id = r == box.size()     ? urban[u].cell
                      : u == urban.size() ? box[r]
                                          : std::min(urban[u].cell, box[r]);
    double m = 0.0;
    for (; u < urban.size() && urban[u].cell == id; ++u) m += urban[u].mass;
    if (r < box.size() && box[r] == id) {
      m += per_cell;
      ++r;
    }
    mass.push_back({id, m});
  }
  return mass;
}

/// apportion()'s hand-out cut: every fraction above `t` gets a terminal,
/// and so do the first `ties` fractions equal to it.
struct Threshold {
  double t = std::numeric_limits<double>::infinity();
  std::uint64_t ties = 0;
};

/// The k-th largest of the `fracs` masses (1 <= k <= size, every value in
/// [0, 1)) as a Threshold for the top k. A histogram on the leading bits
/// finds the bucket holding it, and only that bucket's values are ordered,
/// which is cheaper than one nth_element over every fraction (EXPERIMENTS.md).
Threshold kth_largest_fraction(const std::vector<Placement::CellMass>& fracs,
                               std::uint64_t k) {
  constexpr std::size_t kBuckets = 4096;
  const auto bucket = [](double f) { return static_cast<std::size_t>(f * kBuckets); };
  std::array<std::uint32_t, kBuckets> count{};
  for (const Placement::CellMass& c : fracs) ++count[bucket(c.mass)];
  std::size_t b = kBuckets - 1;
  for (; count[b] < k; --b) k -= count[b];  // k becomes the rank inside b
  std::vector<double> in_bucket;
  in_bucket.reserve(count[b]);
  for (const Placement::CellMass& c : fracs) {
    if (bucket(c.mass) == b) in_bucket.push_back(c.mass);
  }
  const auto kth = in_bucket.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(in_bucket.begin(), kth, in_bucket.end(), std::greater<>{});
  // Every value above t is among the first k of the order, so the rest of
  // those k are handed out at t.
  const double t = *kth;
  const auto above = std::count_if(in_bucket.begin(), kth, [t](double f) { return f > t; });
  return {t, k - static_cast<std::uint64_t>(above)};
}

}  // namespace

std::vector<PopulationCenter> default_population_centers() {
  namespace places = leo::places;
  // Metro populations in millions, rounded; Louvain-la-Neuve is tiny but
  // carries extra weight because it is the vantage whose cell the fleet is
  // meant to contend in (the paper's "shared cell" is *this* cell).
  return {
      {"brussels", places::kBrussels, 1.2},
      {"antwerp", places::kAntwerp, 0.53},
      {"ghent", places::kGhent, 0.26},
      {"liege", places::kLiege, 0.20},
      {"louvain-la-neuve", places::kLouvainLaNeuve, 0.25},
  };
}

std::vector<PopulationCenter> european_population_centers() {
  // Metro-area populations in millions (coarse, public figures); coverage
  // spans the 36-60N service band the 53-degree shell serves best.
  return {
      {"london", {51.507, -0.128, 0.0}, 9.6},       {"paris", {48.857, 2.352, 0.0}, 11.0},
      {"madrid", {40.417, -3.703, 0.0}, 6.7},       {"barcelona", {41.387, 2.170, 0.0}, 5.6},
      {"milan", {45.464, 9.190, 0.0}, 4.3},         {"rome", {41.903, 12.496, 0.0}, 4.3},
      {"naples", {40.852, 14.268, 0.0}, 3.0},       {"turin", {45.070, 7.687, 0.0}, 1.7},
      {"berlin", {52.520, 13.405, 0.0}, 4.5},       {"ruhr", {51.514, 7.466, 0.0}, 5.1},
      {"hamburg", {53.551, 9.994, 0.0}, 3.3},       {"munich", {48.135, 11.582, 0.0}, 2.9},
      {"frankfurt", {50.110, 8.682, 0.0}, 2.7},     {"vienna", {48.208, 16.374, 0.0}, 2.9},
      {"warsaw", {52.230, 21.012, 0.0}, 3.1},       {"krakow", {50.065, 19.945, 0.0}, 1.4},
      {"budapest", {47.498, 19.040, 0.0}, 2.9},     {"prague", {50.076, 14.437, 0.0}, 2.7},
      {"bucharest", {44.427, 26.103, 0.0}, 2.3},    {"sofia", {42.698, 23.322, 0.0}, 1.3},
      {"athens", {37.984, 23.728, 0.0}, 3.1},       {"belgrade", {44.787, 20.449, 0.0}, 1.7},
      {"zagreb", {45.815, 15.982, 0.0}, 1.1},       {"amsterdam", {52.370, 4.895, 0.0}, 2.5},
      {"rotterdam", {51.924, 4.478, 0.0}, 1.9},     {"brussels", {50.850, 4.352, 0.0}, 2.1},
      {"lisbon", {38.722, -9.139, 0.0}, 2.9},       {"porto", {41.158, -8.629, 0.0}, 1.7},
      {"dublin", {53.349, -6.260, 0.0}, 1.4},       {"zurich", {47.377, 8.540, 0.0}, 1.4},
      {"lyon", {45.764, 4.836, 0.0}, 1.7},          {"marseille", {43.296, 5.370, 0.0}, 1.8},
      {"stockholm", {59.329, 18.069, 0.0}, 2.4},    {"copenhagen", {55.676, 12.568, 0.0}, 2.1},
      {"oslo", {59.914, 10.752, 0.0}, 1.7},         {"gothenburg", {57.709, 11.975, 0.0}, 1.0},
      {"manchester", {53.483, -2.244, 0.0}, 2.8},   {"birmingham", {52.486, -1.890, 0.0}, 2.6},
  };
}

Placement::Config Placement::continental_europe() {
  Config c;
  c.urban_fraction = 0.72;
  c.urban_sigma_km = 30.0;  // metro plumes, not single-town scatter
  c.lat_min = 36.0;
  c.lat_max = 60.0;
  c.lon_min = -10.0;
  c.lon_max = 32.0;
  c.centers = european_population_centers();
  return c;
}

Placement Placement::generate(const Config& config, Rng rng) {
  Placement placement{config, CellGrid{config.cell_km}};
  placement.stream_seed_ = rng.next();
  const int want = std::max(0, config.terminals);
  if (want == 0) return placement;

  const std::vector<PopulationCenter> centers =
      config.centers.empty() ? default_population_centers() : config.centers;
  double total_weight = 0.0;
  for (const auto& c : centers) total_weight += std::max(0.0, c.weight);
  const double urban_share =
      total_weight > 0.0 ? std::clamp(config.urban_fraction, 0.0, 1.0) : 0.0;

  // Density mass per candidate cell, summed into one cell-id ordered
  // sequence, so every later step is deterministic by construction.
  std::vector<CellMass> urban;
  for (const auto& c : centers) {
    const double w = std::max(0.0, c.weight);
    if (w <= 0.0) continue;
    add_urban_mass(placement.grid_, c, urban_share * w / total_weight,
                   config.urban_sigma_km, urban);
  }
  const double rural_share = 1.0 - urban_share;
  std::vector<CellMass> mass =
      fold_by_cell(std::move(urban),
                   rural_share > 0.0 ? rural_cells(placement.grid_, config) : std::vector<CellId>{},
                   rural_share);
  if (mass.empty()) {
    // Degenerate box/centres: pile everything into the box-centre cell.
    const leo::GeoPoint mid{(config.lat_min + config.lat_max) / 2.0,
                            (config.lon_min + config.lon_max) / 2.0, 0.0};
    mass.push_back({placement.grid_.cell_of(mid), 1.0});
  }

  // Per-cell realization noise: the expected density above is smooth, the
  // jitter makes each seed a distinct draw from it (as the old one-draw-per-
  // terminal sampler was) without spending per-terminal randomness.
  const std::uint64_t jitter_seed = mix64(placement.stream_seed_, kJitterStream);
  for (CellMass& c : mass) c.mass *= 0.5 + mix_uniform(jitter_seed, c.cell);

  placement.cells_ = apportion(std::move(mass), static_cast<std::uint32_t>(want));
  placement.total_ = placement.cells_.back().first + placement.cells_.back().count;
  return placement;
}

std::vector<Placement::CellRange> Placement::apportion(std::vector<CellMass> mass,
                                                       std::uint32_t terminals) {
  double total_mass = 0.0;
  for (const CellMass& c : mass) total_mass += c.mass;

  // Every cell's floored quota, in place of its eventual range; the
  // fractional parts wait in place of the masses for the leftover.
  std::vector<CellRange> ranges(mass.size());
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < mass.size(); ++i) {
    const double quota = static_cast<double>(terminals) * mass[i].mass / total_mass;
    const double fl = std::floor(quota);
    ranges[i] = {mass[i].cell, 0, static_cast<std::uint32_t>(fl)};
    mass[i].mass = quota - fl;
    assigned += static_cast<std::uint64_t>(fl);
  }
  // The leftover goes one terminal each round the cells in (fraction desc,
  // id asc) order: `rounds` whole rounds, then one more to the first
  // `extra`. Those are the cells whose fraction exceeds the extra-th
  // largest, t, then the lowest-id cells whose fraction equals it; the
  // cells are id-ordered, so one selection of t replaces a sort.
  const std::uint64_t leftover = terminals - assigned;
  const auto rounds = static_cast<std::uint32_t>(leftover / mass.size());
  const std::uint64_t extra = leftover % mass.size();
  Threshold cut;
  if (extra > 0) cut = kth_largest_fraction(mass, extra);

  std::size_t kept = 0;
  TerminalId next = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const double frac = mass[i].mass;
    const bool tie = cut.ties > 0 && frac == cut.t;
    cut.ties -= tie ? 1 : 0;
    const std::uint32_t count = ranges[i].count + rounds + (tie || frac > cut.t ? 1 : 0);
    if (count == 0) continue;
    ranges[kept++] = {ranges[i].cell, next, count};
    next += count;
  }
  ranges.resize(kept);
  return ranges;
}

const Placement::CellRange* Placement::find(CellId cell) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), cell,
      [](const CellRange& r, CellId key) { return r.cell < key; });
  return (it != cells_.end() && it->cell == cell) ? &*it : nullptr;
}

std::vector<Placement::Terminal> Placement::materialize(const CellRange& range) const {
  std::vector<Terminal> out;
  out.reserve(range.count);
  Rng rng{mix64(stream_seed_ ^ kPositionStream, range.cell)};
  const CellGrid::Bounds b = grid_.bounds_of(range.cell);
  for (std::uint32_t k = 0; k < range.count; ++k) {
    Terminal t;
    t.id = range.first + k;
    t.cell = range.cell;
    t.location.lat_deg = rng.uniform(b.lat_min, b.lat_max);
    double lon = rng.uniform(b.lon_min, b.lon_max);
    if (lon >= 180.0) lon -= 360.0;
    t.location.lon_deg = lon;
    out.push_back(t);
  }
  return out;
}

std::vector<Placement::Terminal> Placement::materialize(CellId cell) const {
  const CellRange* r = find(cell);
  return r == nullptr ? std::vector<Terminal>{} : materialize(*r);
}

}  // namespace slp::fleet
