#include "fleet/placement.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <numeric>
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

/// Adds one centre's Gaussian plume, normalized to `share`, into the
/// per-cell mass map. Candidate cells are enumerated directly on the
/// ring/bin lattice within 4 sigma of the centre.
void add_urban_mass(const CellGrid& grid, const PopulationCenter& center, double share,
                    double sigma_km, std::map<CellId, double>& mass) {
  if (share <= 0.0 || sigma_km <= 0.0) return;
  const double reach_km = 4.0 * sigma_km;
  const int r0 = grid.ring_of(center.location.lat_deg - reach_km / kKmPerDegLat);
  const int r1 = grid.ring_of(center.location.lat_deg + reach_km / kKmPerDegLat);
  double lon0 = std::fmod(center.location.lon_deg, 360.0);
  if (lon0 < 0.0) lon0 += 360.0;

  std::vector<std::pair<CellId, double>> plume;
  for (int ring = r0; ring <= r1; ++ring) {
    const int bins = grid.bins_in_ring(ring);
    const double lat = -90.0 + (static_cast<double>(ring) + 0.5) * 180.0 / grid.rings();
    const double km_per_deg_lon =
        kKmPerDegLat * std::max(0.01, std::cos(leo::deg_to_rad(lat)));
    const double bin_km = km_per_deg_lon * 360.0 / bins;
    const int span = std::min(bins / 2, static_cast<int>(std::ceil(reach_km / bin_km)) + 1);
    const int center_bin = static_cast<int>(lon0 / 360.0 * bins) % bins;
    for (int db = -span; db <= span; ++db) {
      const int bin = ((center_bin + db) % bins + bins) % bins;
      const CellId id = CellGrid::id_of(ring, bin);
      const leo::GeoPoint cc = grid.center_of(id);
      const double north_km = (cc.lat_deg - center.location.lat_deg) * kKmPerDegLat;
      const double east_km =
          wrap_deg180(cc.lon_deg - center.location.lon_deg) * km_per_deg_lon;
      const double d2 = north_km * north_km + east_km * east_km;
      if (d2 > reach_km * reach_km) continue;
      plume.emplace_back(id, std::exp(-d2 / (2.0 * sigma_km * sigma_km)));
    }
  }
  double total = 0.0;
  for (const auto& [id, g] : plume) total += g;
  if (total <= 0.0) {
    mass[grid.cell_of(center.location)] += share;
    return;
  }
  for (const auto& [id, g] : plume) mass[id] += share * g / total;
}

/// Spreads `share` uniformly over the cells whose centre lies in the rural
/// bounding box (cells are near-equal-area, so per-cell uniform is per-area
/// uniform to first order).
void add_rural_mass(const CellGrid& grid, const Placement::Config& cfg, double share,
                    std::map<CellId, double>& mass) {
  if (share <= 0.0 || cfg.lat_max <= cfg.lat_min || cfg.lon_max <= cfg.lon_min) return;
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
  std::vector<CellId> box;
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
  if (box.empty()) return;
  const double per_cell = share / static_cast<double>(box.size());
  for (const CellId id : box) mass[id] += per_cell;
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

  // Density mass per candidate cell (std::map: cell-id ordered from the
  // start, so every later step is deterministic by construction).
  std::map<CellId, double> mass;
  for (const auto& c : centers) {
    const double w = std::max(0.0, c.weight);
    if (w <= 0.0) continue;
    add_urban_mass(placement.grid_, c, urban_share * w / total_weight,
                   config.urban_sigma_km, mass);
  }
  add_rural_mass(placement.grid_, config, 1.0 - urban_share, mass);
  if (mass.empty()) {
    // Degenerate box/centres: pile everything into the box-centre cell.
    const leo::GeoPoint mid{(config.lat_min + config.lat_max) / 2.0,
                            (config.lon_min + config.lon_max) / 2.0, 0.0};
    mass[placement.grid_.cell_of(mid)] = 1.0;
  }

  // Per-cell realization noise: the expected density above is smooth, the
  // jitter makes each seed a distinct draw from it (as the old one-draw-per-
  // terminal sampler was) without spending per-terminal randomness.
  const std::uint64_t jitter_seed = mix64(placement.stream_seed_, kJitterStream);
  for (auto& [id, m] : mass) m *= 0.5 + mix_uniform(jitter_seed, id);

  placement.cells_ = apportion(mass, static_cast<std::uint32_t>(want));
  placement.total_ = placement.cells_.back().first + placement.cells_.back().count;
  return placement;
}

std::vector<Placement::CellRange> Placement::apportion(const std::map<CellId, double>& mass,
                                                       std::uint32_t terminals) {
  double total_mass = 0.0;
  for (const auto& [id, m] : mass) total_mass += m;

  struct Slot {
    CellId id = 0;
    std::uint32_t count = 0;
    double frac = 0.0;
  };
  std::vector<Slot> slots;
  slots.reserve(mass.size());
  std::uint64_t assigned = 0;
  for (const auto& [id, m] : mass) {
    const double quota = static_cast<double>(terminals) * m / total_mass;
    const double fl = std::floor(quota);
    slots.push_back({id, static_cast<std::uint32_t>(fl), quota - fl});
    assigned += static_cast<std::uint64_t>(fl);
  }
  // The leftover goes one terminal each to the first `leftover` slots in
  // (fraction desc, id asc) order, round again only if it exceeds the slot
  // count. A single round needs just the set of those slots, not their
  // order, so select it with nth_element; only a wrapping hand-out sorts.
  std::uint64_t leftover = terminals - assigned;
  std::vector<std::uint32_t> order(slots.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto by_remainder = [&slots](std::uint32_t a, std::uint32_t b) {
    if (slots[a].frac != slots[b].frac) return slots[a].frac > slots[b].frac;
    return slots[a].id < slots[b].id;
  };
  const auto top = order.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::uint64_t>(leftover, order.size()));
  std::nth_element(order.begin(), top, order.end(), by_remainder);
  if (leftover > order.size()) std::sort(order.begin(), order.end(), by_remainder);
  for (std::size_t i = 0; leftover > 0; i = (i + 1) % order.size(), --leftover) {
    ++slots[order[i]].count;
  }

  std::vector<CellRange> ranges;
  TerminalId next = 0;
  for (const Slot& s : slots) {
    if (s.count == 0) continue;
    ranges.push_back({s.id, next, s.count});
    next += s.count;
  }
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
