// fleet_test — the multi-terminal fleet subsystem (src/fleet/).
//
// Covers the four layers and their contracts: Placement (seed-derived,
// deterministic, cell-grouped, its rural box equal to an every-bin walk,
// its cells and supercell aggregates pinned by golden digests),
// DemandModel (pure counter-based function of (seed, t)), CellArbiter
// (weighted proportional-fair invariants: work conservation, weight
// monotonicity, no starvation; epoch accounting; load-surge override
// composition; bit-equal to a reference water-filling that sorts with
// std::sort and recomputes on every epoch; its fill-order sort equal to
// std::stable_sort, its bounded fallback included), and the Fleet/FleetCampaign
// integration (size-1 fallback bit-identity to the legacy LoadProcess path,
// the fig5 speedtest pin, queue-drain termination under packet campaigns,
// and --jobs invariance of the merged campaign), the hot cells' cached
// per-terminal demand (equal to the model after every epoch, also under
// diurnal modulation, sharding, mid-run promotion and a moving foreground),
// and the run-folded supercell and terminal samples (bit-equal to one add
// per epoch, and pinned by golden digests).
#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "fleet/campaign.hpp"
#include "fleet/cell_arbiter.hpp"
#include "fleet/demand.hpp"
#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "leo/access.hpp"
#include "measure/campaign.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace slp::fleet {
namespace {

TimePoint at(double seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

// ------------------------------------------------------------- placement

TEST(Placement, DeterministicPerSeedAndConfig) {
  Placement::Config config;
  config.terminals = 400;
  const Placement a = Placement::generate(config, Rng{123}.fork("fleet/placement"));
  const Placement b = Placement::generate(config, Rng{123}.fork("fleet/placement"));
  ASSERT_EQ(a.total_terminals(), 400u);
  ASSERT_EQ(b.total_terminals(), 400u);
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    EXPECT_EQ(a.cells()[i].cell, b.cells()[i].cell);
    EXPECT_EQ(a.cells()[i].first, b.cells()[i].first);
    EXPECT_EQ(a.cells()[i].count, b.cells()[i].count);
    const auto ta = a.materialize(a.cells()[i]);
    const auto tb = b.materialize(b.cells()[i]);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].id, tb[j].id);
      EXPECT_EQ(ta[j].cell, tb[j].cell);
      EXPECT_EQ(ta[j].location.lat_deg, tb[j].location.lat_deg);
      EXPECT_EQ(ta[j].location.lon_deg, tb[j].location.lon_deg);
    }
  }

  const Placement c = Placement::generate(config, Rng{124}.fork("fleet/placement"));
  bool any_differs = c.cells().size() != a.cells().size();
  for (std::size_t i = 0; !any_differs && i < c.cells().size(); ++i) {
    any_differs = c.cells()[i].cell != a.cells()[i].cell ||
                  c.cells()[i].count != a.cells()[i].count;
  }
  if (!any_differs && !c.cells().empty()) {
    const auto tc = c.materialize(c.cells().front());
    const auto tac = a.materialize(a.cells().front());
    any_differs = tc.front().location.lat_deg != tac.front().location.lat_deg;
  }
  EXPECT_TRUE(any_differs) << "different seeds should place different fleets";
}

TEST(Placement, LazyRangesPartitionTheFleet) {
  Placement::Config config;
  config.terminals = 300;
  const Placement p = Placement::generate(config, Rng{7});
  std::uint32_t next = 0;
  CellId prev_cell = 0;
  bool first = true;
  for (const Placement::CellRange& r : p.cells()) {
    EXPECT_GT(r.count, 0u);
    if (!first) {
      EXPECT_LT(prev_cell, r.cell) << "cells() must be cell-id ordered";
    }
    prev_cell = r.cell;
    first = false;
    EXPECT_EQ(r.first, next) << "id ranges must be contiguous in cell-id order";
    next += r.count;
    EXPECT_EQ(p.find(r.cell), &r);
    const auto terms = p.materialize(r);
    ASSERT_EQ(terms.size(), r.count);
    for (std::size_t j = 0; j < terms.size(); ++j) {
      EXPECT_EQ(terms[j].id, r.first + j);
      EXPECT_EQ(terms[j].cell, r.cell);
      EXPECT_EQ(p.grid().cell_of(terms[j].location), r.cell)
          << "materialized coordinates must land inside their own cell";
    }
  }
  EXPECT_EQ(next, 300u);
  EXPECT_EQ(p.total_terminals(), 300u);
  EXPECT_GT(p.cell_count(), 1u) << "300 terminals should span several cells";
}

TEST(Placement, MillionTerminalContinentStaysLazy) {
  Placement::Config config = Placement::continental_europe();
  config.terminals = 1'000'000;
  const Placement p = Placement::generate(config, Rng{3}.fork("fleet/placement"));
  EXPECT_EQ(p.total_terminals(), 1'000'000u);
  EXPECT_GT(p.cell_count(), 1'000u) << "a continent spans many cells";
  EXPECT_LT(p.cell_count(), 200'000u) << "state must be O(populated cells), never O(N)";
  // Materialization is per-cell, order-independent, and repeatable.
  const Placement::CellRange& mid = p.cells()[p.cells().size() / 2];
  const auto once = p.materialize(mid);
  const auto again = p.materialize(mid.cell);
  ASSERT_EQ(once.size(), again.size());
  for (std::size_t j = 0; j < once.size(); ++j) {
    EXPECT_EQ(once[j].location.lat_deg, again[j].location.lat_deg);
    EXPECT_EQ(once[j].location.lon_deg, again[j].location.lon_deg);
  }
}

TEST(Placement, ApportionmentMatchesFullSortReference) {
  // The largest-remainder reference: floor every quota, sort every cell by
  // (fraction desc, id asc), then hand out the leftover round that order.
  using Mass = std::vector<Placement::CellMass>;
  const auto reference = [](const Mass& mass, std::uint32_t terminals) {
    double total = 0.0;
    for (const auto& [id, m] : mass) total += m;
    std::vector<std::tuple<CellId, std::uint32_t, double>> cells;
    std::uint64_t assigned = 0;
    for (const auto& [id, m] : mass) {
      const double quota = static_cast<double>(terminals) * m / total;
      cells.emplace_back(id, static_cast<std::uint32_t>(std::floor(quota)),
                         quota - std::floor(quota));
      assigned += static_cast<std::uint64_t>(std::floor(quota));
    }
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&cells](std::size_t a, std::size_t b) {
      const double fa = std::get<2>(cells[a]);
      const double fb = std::get<2>(cells[b]);
      return fa != fb ? fa > fb : std::get<0>(cells[a]) < std::get<0>(cells[b]);
    });
    for (std::uint64_t i = 0; assigned + i < terminals; ++i) {
      ++std::get<1>(cells[order[i % order.size()]]);
    }
    std::vector<Placement::CellRange> ranges;
    TerminalId next = 0;
    for (const auto& [id, count, frac] : cells) {
      if (count == 0) continue;
      ranges.push_back({id, next, count});
      next += count;
    }
    return ranges;
  };

  // Ties in the fractional parts (equal masses) and cells that get nothing
  // but a leftover terminal, then a jittered mass like generate()'s, then
  // listed cells with zero mass (generate() keeps a cell a plume lists even
  // when its Gaussian weight underflows).
  Mass even;
  for (int bin = 0; bin < 7; ++bin) even.push_back({CellGrid::id_of(400, bin), 1.0});
  Mass jittered;
  for (int ring = 300; ring < 320; ++ring) {
    for (int bin = 0; bin < 25; ++bin) {
      const CellId id = CellGrid::id_of(ring, bin);
      jittered.push_back({id, 0.5 + mix_uniform(99, id)});
    }
  }
  Mass sparse = jittered;
  for (std::size_t i = 0; i < sparse.size(); i += 3) sparse[i].mass = 0.0;
  for (const auto& [mass, terminals] :
       {std::pair{even, 3u}, std::pair{even, 17u}, std::pair{jittered, 1234u},
        std::pair{jittered, 499u}, std::pair{jittered, 100'000u}, std::pair{sparse, 333u},
        std::pair{sparse, 1000u}}) {
    const auto want = reference(mass, terminals);
    const auto got = Placement::apportion(mass, terminals);
    ASSERT_EQ(got.size(), want.size()) << terminals << " terminals";
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].cell, want[i].cell);
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_EQ(got[i].count, want[i].count);
      sum += got[i].count;
    }
    EXPECT_EQ(sum, terminals);
  }
}

TEST(Placement, RuralBoxEqualsEveryBinWalk) {
  // The rural fill visits only the bin runs the box's longitudes reach; the
  // cells it keeps must be those of a walk over every bin of every ring in
  // the latitude band, in the same (id) order. With no urban mass and four
  // terminals per box cell, every box cell gets at least one terminal.
  struct Box {
    double cell_km, lat_min, lat_max, lon_min, lon_max;
  };
  const Box boxes[] = {
      {1.0, 50.0, 50.3, -0.4, 0.4},          {1.0, -20.0, -19.8, 179.6, 180.4},
      {1.0, 10.0, 10.2, -180.4, -179.6},     {24.0, 36.0, 60.0, -10.0, 32.0},
      {24.0, -45.0, -30.0, 170.0, 190.0},    {24.0, 60.0, 70.0, -190.0, -170.0},
      {24.0, -5.0, 5.0, -180.0, 180.0},      {24.0, 20.0, 30.0, -179.5, 179.5},
      {192.0, -60.0, 60.0, -40.0, 40.0},     {192.0, -80.0, 80.0, -180.0, 180.0},
      {192.0, 70.0, 89.0, 150.0, 200.0},     {192.0, -89.0, -70.0, -200.0, -150.0},
  };
  for (const Box& box : boxes) {
    const CellGrid grid{box.cell_km};
    std::vector<CellId> want;
    for (int ring = grid.ring_of(box.lat_min); ring <= grid.ring_of(box.lat_max); ++ring) {
      for (int bin = 0; bin < grid.bins_in_ring(ring); ++bin) {
        const CellId id = CellGrid::id_of(ring, bin);
        const double lon = grid.center_of(id).lon_deg;
        if (lon >= box.lon_min && lon <= box.lon_max) want.push_back(id);
      }
    }
    ASSERT_FALSE(want.empty());
    Placement::Config config;
    config.cell_km = box.cell_km;
    config.urban_fraction = 0.0;
    config.lat_min = box.lat_min;
    config.lat_max = box.lat_max;
    config.lon_min = box.lon_min;
    config.lon_max = box.lon_max;
    config.terminals = static_cast<int>(4 * want.size());
    const Placement placement = Placement::generate(config, Rng{17});
    std::vector<CellId> got;
    for (const Placement::CellRange& r : placement.cells()) got.push_back(r.cell);
    EXPECT_EQ(got, want) << box.cell_km << " km, lon [" << box.lon_min << ", "
                         << box.lon_max << "]";
  }
}

// ------------------------------------------------------------- cell grid

TEST(CellGrid, RingTableEqualsClosedForm) {
  const double km_per_deg_lat = 2.0 * std::numbers::pi * leo::kEarthRadiusM / 1000.0 / 360.0;
  for (const double cell_km : {1.0, 24.0, 192.0}) {
    const CellGrid grid{cell_km};
    const int rings = std::max(1, static_cast<int>(std::ceil(180.0 * km_per_deg_lat / cell_km)));
    ASSERT_EQ(grid.rings(), rings) << cell_km << " km";
    for (int ring = 0; ring < rings; ++ring) {
      const double lat_deg = -90.0 + (static_cast<double>(ring) + 0.5) * 180.0 / rings;
      const double circumference_km =
          360.0 * km_per_deg_lat * std::cos(leo::deg_to_rad(lat_deg));
      const int bins = std::max(1, static_cast<int>(std::round(circumference_km / cell_km)));
      ASSERT_EQ(grid.bins_in_ring(ring), bins) << cell_km << " km, ring " << ring;
    }
  }
}

TEST(CellGrid, CellOfCenterRoundTripsOnEveryRing) {
  for (const double cell_km : {1.0, 24.0, 192.0}) {
    const CellGrid grid{cell_km};
    for (int ring = 0; ring < grid.rings(); ++ring) {
      // One bin per ring, walking round the ring so both hemispheres of
      // longitude (and the last bin before the wrap) are covered.
      const int bins = grid.bins_in_ring(ring);
      const int bin = ring % 3 == 0 ? bins - 1 : (ring * 7919) % bins;
      const CellId id = CellGrid::id_of(ring, bin);
      ASSERT_EQ(grid.cell_of(grid.center_of(id)), id)
          << cell_km << " km, " << CellGrid::to_string(id);
    }
  }
}

// ------------------------------------------------------ hierarchical grid

TEST(HierarchicalGrid, SupercellsCoverBaseCellsWithoutKeyCollisions) {
  const HierarchicalGrid h{24.0, 8};
  Placement::Config config = Placement::continental_europe();
  config.terminals = 5000;
  const Placement p = Placement::generate(config, Rng{5});
  std::size_t distinct_supers = 0;
  CellId prev_super = 0;
  bool first = true;
  for (const Placement::CellRange& r : p.cells()) {
    const CellId super = h.super_of(r.cell);
    EXPECT_EQ(h.coarse().cell_of(h.base().center_of(r.cell)), super)
        << "super_of must be the coarse cell containing the base-cell centre";
    EXPECT_EQ(super & HierarchicalGrid::kAggregateKeyBit, 0u)
        << "real grid ids never use the aggregate tag bit";
    if (first || super != prev_super) ++distinct_supers;
    prev_super = super;
    first = false;
  }
  EXPECT_GT(distinct_supers, 1u);
  EXPECT_LT(distinct_supers, p.cell_count())
      << "a factor-8 supercell should fold many base cells";
}

TEST(HierarchicalGrid, SuperOfEqualsCentreRoundTripOnEveryRing) {
  // super_of against its definition, the coarse cell holding the base
  // cell's centre, on every ring of each grid: the first and last bins, the
  // bins either side of 180 degrees, and a stride through the rest.
  for (const auto& [cell_km, factor] :
       {std::pair{24.0, 8}, std::pair{24.0, 1}, std::pair{192.0, 4}, std::pair{5.0, 16},
        std::pair{1.0, 3}}) {
    const HierarchicalGrid h{cell_km, factor};
    const CellGrid& base = h.base();
    for (int ring = 0; ring < base.rings(); ++ring) {
      const int bins = base.bins_in_ring(ring);
      std::vector<int> picks{bins - 1, bins / 2 - 1, bins / 2, bins / 2 + 1};
      for (int bin = 0; bin < bins; bin += std::max(1, bins / 64)) picks.push_back(bin);
      for (const int bin : picks) {
        if (bin < 0 || bin >= bins) continue;
        const CellId id = CellGrid::id_of(ring, bin);
        ASSERT_EQ(h.super_of(id), h.coarse().cell_of(base.center_of(id)))
            << cell_km << " km x" << factor << ", " << CellGrid::to_string(id);
      }
    }
  }
}

// ------------------------------------------------- construction digests

/// Order-sensitive hash of what Fleet construction produces: every
/// populated cell's (cell, first, count), then every supercell aggregate's
/// (super, terminals, cells).
std::pair<std::uint64_t, std::uint64_t> construction_digests(const Fleet& fleet) {
  std::uint64_t cells = 0;
  for (const Placement::CellRange& r : fleet.placement().cells()) {
    cells = mix64(mix64(mix64(cells, r.cell), r.first), r.count);
  }
  std::uint64_t aggregates = 0;
  for (const Fleet::Aggregate& a : fleet.aggregates()) {
    aggregates = mix64(mix64(mix64(aggregates, a.super), a.terminals), a.cells);
  }
  return {cells, aggregates};
}

TEST(Fleet, ConstructionMatchesGoldenDigests) {
  // Pinned digests: a change to which cells are populated, their id ranges
  // or their supercell fold is a change of every fleet realization and
  // must be deliberate.
  Placement::Config no_centres;  // one zero-weight centre: rural fill only
  no_centres.centers = {{"nowhere", {50.5, 4.5, 0.0}, 0.0}};
  Placement::Config degenerate;  // empty box, no urban share: the mid cell
  degenerate.urban_fraction = 0.0;
  degenerate.lat_min = 51.0;
  degenerate.lat_max = 50.0;
  struct Row {
    const char* name;
    Placement::Config placement;
    int size;
    std::uint64_t seed;
    std::uint64_t cells;
    std::uint64_t aggregates;
  };
  const Row rows[] = {
      {"default", {}, 5000, 1,
       0x393fbf9c401818aeull, 0x5ad5c2f9dd6f9c22ull},
      {"default", {}, 5000, 7937,
       0x5e51563e8c8af2c1ull, 0x77ccd75ba5d27cc1ull},
      {"continental", Placement::continental_europe(), 1'000'000, 1,
       0xc7b98beeb3ba56fbull, 0xfb623bb181720130ull},
      {"continental", Placement::continental_europe(), 1'000'000, 7937,
       0xd89d71515abfdbfcull, 0x4c5f6c8513c72c25ull},
      {"no-centres", no_centres, 3000, 1,
       0x456a86edf8899ed4ull, 0x76b14c10670a2194ull},
      {"no-centres", no_centres, 3000, 7937,
       0xd5ad45c9cfd12e9eull, 0xb976f2b88d2ba128ull},
      {"degenerate-box", degenerate, 200, 1,
       0x302a23e0116cda01ull, 0x01470ea3916dcee4ull},
      {"degenerate-box", degenerate, 200, 7937,
       0x302a23e0116cda01ull, 0x01470ea3916dcee4ull},
  };
  for (const Row& row : rows) {
    sim::Simulator sim{row.seed};
    sim::Network net{sim};
    leo::StarlinkAccess access{net, {}};
    Fleet::Config config;
    config.size = row.size;
    config.placement = row.placement;
    config.aggregate_idle = true;
    const Fleet fleet{sim, access, config};
    const auto [cells, aggregates] = construction_digests(fleet);
    EXPECT_EQ(cells, row.cells) << row.name << " seed " << row.seed;
    EXPECT_EQ(aggregates, row.aggregates) << row.name << " seed " << row.seed;
  }
}

// ------------------------------------------------- run-fold digests

/// Order-sensitive hash of a keyed distribution: every group's key, the bit
/// patterns of its count, mean, m2, sum, min and max, and its bucket counts.
std::uint64_t keyed_digest(const stats::KeyedSamples& samples, std::uint64_t h) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto& [key, g] : samples.groups()) {
    const stats::StreamingSummary& s = g.summary;
    h = mix64(mix64(mix64(h, key), s.count()), bits(s.mean()));
    h = mix64(mix64(mix64(h, bits(s.m2())), bits(s.sum())), bits(s.min()));
    h = mix64(h, bits(s.max()));
    for (const std::uint64_t n : g.counts) h = mix64(h, n);
  }
  return h;
}

TEST(Fleet, RunFoldMatchesGoldenDigests) {
  // Pinned digests of everything the run folds produce. The determinism
  // harness diffs axes of one build, so a fold change that moved bits the
  // same way on every axis would pass it; these would not.
  struct Row {
    const char* name;
    Placement::Config placement;
    int size;
    bool aggregate_idle;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"default", {}, 2000, false, 1, 0xf310a088b2437054ull},
      {"default", {}, 2000, false, 7937, 0x8b49096b88b7c030ull},
      {"continental", Placement::continental_europe(), 1'000'000, true, 1, 0x16a21b0607640776ull},
      {"continental", Placement::continental_europe(), 1'000'000, true, 7937, 0xb5fbfcfda9f2cdacull},
  };
  for (const Row& row : rows) {
    for (const int shards : {1, 2}) {
      FleetCampaign::Config config;
      config.seed = row.seed;
      config.duration = Duration::minutes(10);
      config.fleet.size = row.size;
      config.fleet.placement = row.placement;
      config.fleet.aggregate_idle = row.aggregate_idle;
      config.fleet.shards = shards;
      const FleetCampaign::Result r = FleetCampaign::run(config);
      ASSERT_GT(r.terminal_down_mbps.total_count(), 0u) << row.name;
      const std::uint64_t digest = keyed_digest(
          r.terminal_down_mbps, keyed_digest(r.cell_util_up, keyed_digest(r.cell_util_down, 0)));
      EXPECT_EQ(digest, row.digest) << row.name << " seed " << row.seed << " shards " << shards
                                    << ": 0x" << std::hex << digest;
    }
  }
}

// ---------------------------------------------------------------- demand

TEST(DemandModel, PureAndQueryOrderIndependent) {
  const DemandModel model{DemandModel::Config{}};
  const std::uint64_t seed = mix64(42, 7);
  // Random-access queries equal repeated/sequential ones bit-for-bit.
  const DemandModel::Demand late = model.at(seed, at(3600));
  for (double t : {0.0, 2.0, 100.0, 3600.0, 100.0}) {
    const DemandModel::Demand x = model.at(seed, at(t));
    const DemandModel::Demand y = model.at(seed, at(t));
    EXPECT_EQ(x.down.bits_per_second(), y.down.bits_per_second());
    EXPECT_EQ(x.up.bits_per_second(), y.up.bits_per_second());
  }
  const DemandModel::Demand late2 = model.at(seed, at(3600));
  EXPECT_EQ(late.down.bits_per_second(), late2.down.bits_per_second());
}

TEST(DemandModel, ClassMixFollowsConfiguredFractions) {
  const DemandModel model{DemandModel::Config{}};
  int counts[7] = {};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<int>(model.class_of(mix64(99, static_cast<std::uint64_t>(i))))]++;
  }
  const DemandModel::Config def;
  EXPECT_NEAR(counts[0] / double(n), def.bulk.fraction, 0.02);
  EXPECT_NEAR(counts[1] / double(n), def.speedtest.fraction, 0.02);
  EXPECT_NEAR(counts[2] / double(n), def.web.fraction, 0.02);
  // QoE classes are disabled in the stock mix.
  EXPECT_EQ(counts[static_cast<int>(DemandClass::kVideo)], 0);
  EXPECT_EQ(counts[static_cast<int>(DemandClass::kVc)], 0);
  EXPECT_EQ(counts[static_cast<int>(DemandClass::kGame)], 0);
  EXPECT_NEAR(counts[static_cast<int>(DemandClass::kIdle)] / double(n),
              def.idle.fraction, 0.02);
}

TEST(DemandModel, DefaultMixUnchangedByQoeClasses) {
  // The zero-fraction QoE classes must be invisible: every terminal keeps
  // the exact class and demand it had before they existed, so the stock
  // fig-bench exports stay byte-identical.
  const DemandModel model{named_mix("default")};
  for (int i = 0; i < 5000; ++i) {
    const DemandClass c = model.class_of(mix64(7, static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(c == DemandClass::kBulk || c == DemandClass::kSpeedtest ||
                c == DemandClass::kWeb || c == DemandClass::kIdle);
  }
}

TEST(DemandModel, NamedMixesEnableQoeClasses) {
  for (std::string_view name : mix_names()) {
    EXPECT_NO_THROW(static_cast<void>(named_mix(name)));
  }
  EXPECT_THROW(static_cast<void>(named_mix("nope")), std::invalid_argument);

  const DemandModel model{named_mix("mixed")};
  int counts[7] = {};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<int>(model.class_of(mix64(99, static_cast<std::uint64_t>(i))))]++;
  }
  const DemandModel::Config mixed = named_mix("mixed");
  EXPECT_NEAR(counts[static_cast<int>(DemandClass::kVideo)] / double(n),
              mixed.video.fraction, 0.02);
  EXPECT_NEAR(counts[static_cast<int>(DemandClass::kVc)] / double(n),
              mixed.vc.fraction, 0.02);
  EXPECT_NEAR(counts[static_cast<int>(DemandClass::kGame)] / double(n),
              mixed.game.fraction, 0.02);
  // expected() folds the new classes into the class-mix mean.
  EXPECT_GT(model.expected().down.bits_per_second(), 0.0);
}

// --------------------------------------------------------------- arbiter

CellArbiter make_arbiter() {
  CellArbiter::Config config;
  config.downlink_load = leo::StarlinkAccess::Config{}.downlink_load;
  config.uplink_load = leo::StarlinkAccess::Config{}.uplink_load;
  return CellArbiter{config, Rng{5}.fork("down"), Rng{5}.fork("up")};
}

TEST(CellArbiter, WorkConservationUnderAndOverLoad) {
  CellArbiter arb = make_arbiter();
  arb.attach(1, 1.0, false);
  arb.attach(2, 1.0, false);
  arb.set_demand(1, DataRate::mbps(10), DataRate::mbps(1));
  arb.set_demand(2, DataRate::mbps(20), DataRate::mbps(2));
  arb.reallocate(at(0));
  // Under-load: everyone gets exactly their demand.
  EXPECT_DOUBLE_EQ(arb.background_allocated(CellArbiter::kDown).bits_per_second(), 30e6);
  EXPECT_DOUBLE_EQ(arb.allocation(1, CellArbiter::kDown).bits_per_second(), 10e6);

  // Over-load: the sum equals the schedulable budget (nominal x ceiling).
  arb.set_demand(1, DataRate::mbps(400), DataRate::mbps(1));
  arb.set_demand(2, DataRate::mbps(400), DataRate::mbps(2));
  arb.reallocate(at(2));
  const double budget = arb.config().cell_downlink.bits_per_second() *
                        arb.config().downlink_load.ceiling;
  EXPECT_NEAR(arb.background_allocated(CellArbiter::kDown).bits_per_second(), budget,
              budget * 1e-9);
  EXPECT_DOUBLE_EQ(arb.utilization(CellArbiter::kDown, at(2)),
                   arb.config().downlink_load.ceiling);
}

TEST(CellArbiter, WeightMonotonicityAndNoStarvation) {
  CellArbiter arb = make_arbiter();
  arb.attach(1, 1.0, false);
  arb.attach(2, 3.0, false);
  arb.attach(3, 1.0, false);
  // Saturate: all three want more than the cell has.
  for (TerminalId id : {1u, 2u, 3u}) {
    arb.set_demand(id, DataRate::mbps(900), DataRate::mbps(50));
  }
  arb.reallocate(at(0));
  const double a1 = arb.allocation(1, CellArbiter::kDown).bits_per_second();
  const double a2 = arb.allocation(2, CellArbiter::kDown).bits_per_second();
  const double a3 = arb.allocation(3, CellArbiter::kDown).bits_per_second();
  EXPECT_GT(a1, 0.0);
  EXPECT_GT(a2, 0.0);
  EXPECT_GT(a3, 0.0);
  EXPECT_DOUBLE_EQ(a1, a3) << "equal weight + equal demand -> equal share";
  EXPECT_NEAR(a2, 3.0 * a1, a2 * 1e-9) << "3x weight -> 3x share under scarcity";
}

TEST(CellArbiter, ElasticForegroundKeepsProportionalShare) {
  CellArbiter arb = make_arbiter();
  arb.attach(Fleet::kForegroundId, 1.0, true);
  arb.attach(1, 1.0, false);
  arb.set_demand(1, DataRate::mbps(5000), DataRate::mbps(100));  // hog
  arb.reallocate(at(0));
  // The ceiling clamp guarantees the elastic pool at least (1 - ceiling);
  // the elastic weight in the water-filling denominator guarantees more when
  // the background cannot burn the whole budget.
  const double nominal = arb.config().cell_downlink.bits_per_second();
  const double avail = arb.available_fraction(CellArbiter::kDown, at(0));
  EXPECT_GE(avail, 1.0 - arb.config().downlink_load.ceiling - 1e-12);
  EXPECT_DOUBLE_EQ(
      arb.allocation(Fleet::kForegroundId, CellArbiter::kDown).bits_per_second(),
      nominal * avail);
}

TEST(CellArbiter, EpochAccounting) {
  CellArbiter arb = make_arbiter();
  EXPECT_EQ(arb.stats().reallocations, 0u);
  arb.attach(1, 1.0, false);
  EXPECT_EQ(arb.stats().attaches, 1u);
  arb.reallocate(at(0));
  EXPECT_EQ(arb.stats().reallocations, 1u);
  arb.reallocate(at(0));
  EXPECT_EQ(arb.stats().reallocations, 1u) << "clean epoch must be a no-op";

  // Zero -> positive demand counts as an active-set attach; back to zero as
  // a detach. Both dirty the epoch.
  arb.set_demand(1, DataRate::mbps(4), DataRate::zero());
  EXPECT_EQ(arb.stats().attaches, 2u);
  arb.reallocate(at(2));
  EXPECT_EQ(arb.stats().reallocations, 2u);
  arb.set_demand(1, DataRate::zero(), DataRate::zero());
  EXPECT_EQ(arb.stats().detaches, 1u);

  arb.note_handover();
  EXPECT_EQ(arb.stats().handovers, 1u);
  arb.reallocate(at(4));
  EXPECT_EQ(arb.stats().reallocations, 3u);

  arb.detach(1);
  EXPECT_EQ(arb.stats().detaches, 2u);
  EXPECT_FALSE(arb.has_background());
}

TEST(CellArbiter, LoadSurgeOverrideComposesAsFloor) {
  CellArbiter arb = make_arbiter();
  arb.attach(1, 1.0, false);
  arb.set_demand(1, DataRate::mbps(90), DataRate::mbps(8));
  const double base = arb.utilization(CellArbiter::kDown, at(0));
  EXPECT_DOUBLE_EQ(base, 0.2) << "90/450 = 0.2 contention";

  // Override above contention pins the higher utilization...
  arb.set_load_override(CellArbiter::kDown, 0.6);
  EXPECT_DOUBLE_EQ(arb.utilization(CellArbiter::kDown, at(0)), 0.6);
  EXPECT_DOUBLE_EQ(arb.available_fraction(CellArbiter::kDown, at(0)), 0.4);
  // ...an override below contention does not mask the simulated demand.
  arb.set_load_override(CellArbiter::kDown, 0.11);
  EXPECT_DOUBLE_EQ(arb.utilization(CellArbiter::kDown, at(0)), base);
  arb.clear_load_override(CellArbiter::kDown);
  EXPECT_DOUBLE_EQ(arb.utilization(CellArbiter::kDown, at(0)), base);
}

TEST(CellArbiter, FallbackDelegatesToAmbientProcess) {
  // No background members: both directions must read the ambient LoadProcess
  // bit-for-bit, including overrides.
  CellArbiter::Config config;
  config.downlink_load = leo::StarlinkAccess::Config{}.downlink_load;
  config.uplink_load = leo::StarlinkAccess::Config{}.uplink_load;
  CellArbiter arb{config, Rng{11}.fork("d"), Rng{11}.fork("u")};
  phy::LoadProcess ref_down{config.downlink_load, Rng{11}.fork("d")};
  phy::LoadProcess ref_up{config.uplink_load, Rng{11}.fork("u")};
  arb.attach(Fleet::kForegroundId, 1.0, true);  // elastic members don't count
  EXPECT_FALSE(arb.has_background());
  for (double t : {0.0, 2.0, 4.0, 60.0, 61.5}) {
    EXPECT_EQ(arb.available_fraction(CellArbiter::kDown, at(t)),
              ref_down.available_fraction(at(t)));
    EXPECT_EQ(arb.available_fraction(CellArbiter::kUp, at(t)),
              ref_up.available_fraction(at(t)));
  }
  arb.set_load_override(CellArbiter::kDown, 0.9);
  ref_down.set_utilization_override(0.9);
  EXPECT_EQ(arb.available_fraction(CellArbiter::kDown, at(8)),
            ref_down.available_fraction(at(8)));
}

// Reference water-filling: a comparison sort with an id tie-break, re-run
// on every epoch trigger, handovers included. The arbiter sorts by radix and
// keeps its allocation over handover-only epochs; neither may change a bit
// it reports.
class ReferenceArbiter {
 public:
  ReferenceArbiter(CellArbiter::Config config, Rng down_rng, Rng up_rng)
      : config_{config},
        ambient_{phy::LoadProcess{config.uplink_load, up_rng},
                 phy::LoadProcess{config.downlink_load, down_rng}} {}

  void attach(TerminalId id, double weight, bool elastic) {
    const auto it = lower(id);
    if (it != members_.end() && it->id == id) {
      it->weight = std::max(1e-9, weight);
      it->elastic = elastic;
    } else {
      members_.insert(it, Member{id, std::max(1e-9, weight), elastic, {}, {}});
      if (!elastic) ++background_;
      ++stats_.attaches;
    }
    mark_epoch();
  }
  void detach(TerminalId id) {
    const auto it = lower(id);
    if (it == members_.end() || it->id != id) return;
    if (!it->elastic) --background_;
    members_.erase(it);
    ++stats_.detaches;
    mark_epoch();
  }
  void set_demand_at(std::size_t index, DataRate down, DataRate up) {
    Member& m = members_[index];
    if (m.elastic) return;
    const double d = std::max(0.0, down.bits_per_second());
    const double u = std::max(0.0, up.bits_per_second());
    if (m.demand[CellArbiter::kDown] == d && m.demand[CellArbiter::kUp] == u) return;
    const bool was = m.demand[0] > 0.0 || m.demand[1] > 0.0;
    m.demand[CellArbiter::kDown] = d;
    m.demand[CellArbiter::kUp] = u;
    const bool is = d > 0.0 || u > 0.0;
    if (is && !was) ++stats_.attaches;
    if (!is && was) ++stats_.detaches;
    mark_epoch();
  }
  void note_handover() {
    ++stats_.handovers;
    mark_epoch();
  }
  void set_load_override(int dir, double u) {
    ambient_[dir].set_utilization_override(u);
    mark_epoch();
  }
  void clear_load_override(int dir) {
    ambient_[dir].clear_override();
    mark_epoch();
  }
  void reallocate(TimePoint t) {
    if (!dirty_) return;
    recompute(CellArbiter::kUp, t);
    recompute(CellArbiter::kDown, t);
    dirty_ = false;
    ++stats_.reallocations;
  }
  double utilization(int dir, TimePoint t) {
    if (background_ == 0) return ambient_[dir].utilization(t);
    reallocate(t);
    return util_[dir];
  }
  [[nodiscard]] double allocation_at(std::size_t index, int dir) const {
    return members_[index].alloc[dir];
  }
  [[nodiscard]] std::size_t members() const { return members_.size(); }
  [[nodiscard]] TerminalId id_at(std::size_t index) const { return members_[index].id; }
  [[nodiscard]] const CellArbiter::Stats& stats() const { return stats_; }

 private:
  struct Member {
    TerminalId id;
    double weight;
    bool elastic;
    double demand[2];
    double alloc[2];
  };

  std::vector<Member>::iterator lower(TerminalId id) {
    return std::lower_bound(members_.begin(), members_.end(), id,
                            [](const Member& m, TerminalId key) { return m.id < key; });
  }
  void mark_epoch() {
    dirty_ = true;
    ++stats_.epoch;
  }
  void recompute(int dir, TimePoint t) {
    const double nominal =
        (dir == CellArbiter::kUp ? config_.cell_uplink : config_.cell_downlink)
            .bits_per_second();
    const phy::LoadProcess::Config& load =
        dir == CellArbiter::kUp ? config_.uplink_load : config_.downlink_load;
    struct Entry {
      std::size_t member;
      double weight;
      double normalized;
    };
    std::vector<Entry> fill;
    double elastic_weight = 0.0;
    double total_weight = 0.0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      Member& m = members_[i];
      m.alloc[dir] = 0.0;
      if (m.elastic) {
        elastic_weight += m.weight;
        total_weight += m.weight;
        continue;
      }
      if (m.demand[dir] <= 0.0) continue;
      fill.push_back({i, m.weight, m.demand[dir] / m.weight});
      total_weight += m.weight;
    }
    std::sort(fill.begin(), fill.end(), [this](const Entry& a, const Entry& b) {
      if (a.normalized != b.normalized) return a.normalized < b.normalized;
      return members_[a.member].id < members_[b.member].id;
    });
    double remaining = nominal * load.ceiling;
    double weight_left = total_weight;
    std::size_t cursor = 0;
    for (; cursor < fill.size(); ++cursor) {
      const Entry& e = fill[cursor];
      Member& m = members_[e.member];
      const double fair = weight_left > 0.0 ? remaining / weight_left : 0.0;
      if (e.normalized > fair) break;
      m.alloc[dir] = m.demand[dir];
      remaining -= m.demand[dir];
      weight_left -= e.weight;
    }
    for (std::size_t i = cursor; i < fill.size(); ++i) {
      members_[fill[i].member].alloc[dir] =
          weight_left > 0.0 ? fill[i].weight * remaining / weight_left : 0.0;
    }
    double background_total = 0.0;
    for (const Entry& e : fill) background_total += members_[e.member].alloc[dir];
    double util = std::clamp(background_total / nominal, load.floor, load.ceiling);
    if (ambient_[dir].overridden()) {
      util = std::clamp(std::max(util, ambient_[dir].utilization(t)), load.floor, load.ceiling);
    }
    util_[dir] = util;
    for (Member& m : members_) {
      if (m.elastic) {
        m.alloc[dir] = elastic_weight > 0.0
                           ? nominal * (1.0 - util) * m.weight / elastic_weight
                           : 0.0;
      }
    }
  }

  CellArbiter::Config config_;
  phy::LoadProcess ambient_[2];  ///< [kUp, kDown]
  std::vector<Member> members_;
  std::size_t background_ = 0;
  bool dirty_ = true;
  double util_[2] = {0.0, 0.0};
  CellArbiter::Stats stats_;
};

TEST(CellArbiter, MatchesReferenceWaterFilling) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  CellArbiter::Config config;
  config.downlink_load = leo::StarlinkAccess::Config{}.downlink_load;
  config.uplink_load = leo::StarlinkAccess::Config{}.uplink_load;
  const double weights[] = {1.0, 1.0, 2.0, 0.5, 3.7, 1e-12};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    CellArbiter arb{config, Rng{seed}.fork("down"), Rng{seed}.fork("up")};
    ReferenceArbiter ref{config, Rng{seed}.fork("down"), Rng{seed}.fork("up")};
    Rng rng{seed};
    TimePoint t = at(0);
    // Few ids and a handful of integer demands, so keys tie often.
    // The last kind shares the top three key bytes across members of one
    // weight, so only the sort's insertion pass orders them.
    const auto demand = [&rng] {
      switch (rng.uniform_int(0, 4)) {
        case 0: return DataRate::zero();
        case 1: return DataRate::mbps(static_cast<double>(rng.uniform_int(1, 6)));
        case 2: return DataRate::mbps(rng.uniform(0.0, 400.0));
        case 3: return DataRate::mbps(static_cast<double>(rng.uniform_int(1, 3)) * 25.0);
        default: return DataRate::bps(1e7 + static_cast<double>(rng.uniform_int(0, 40)));
      }
    };
    for (int step = 0; step < 600; ++step) {
      const int dir = rng.chance(0.5) ? CellArbiter::kUp : CellArbiter::kDown;
      switch (rng.uniform_int(0, 9)) {
        case 0: {
          const auto id = static_cast<TerminalId>(rng.uniform_int(0, 40));
          const double w = weights[rng.index(std::size(weights))];
          const bool elastic = rng.chance(0.1);
          arb.attach(id, w, elastic);
          ref.attach(id, w, elastic);
          break;
        }
        case 1: {
          const auto id = static_cast<TerminalId>(rng.uniform_int(0, 40));
          arb.detach(id);
          ref.detach(id);
          break;
        }
        case 2:
        case 3:
        case 4:
          if (ref.members() > 0) {
            const std::size_t k = rng.index(ref.members());
            const DataRate down = demand();
            const DataRate up = rng.chance(0.3) ? down : demand();
            arb.set_demand_at(k, down, up);
            ref.set_demand_at(k, down, up);
          }
          break;
        case 5:
        case 6:
          arb.note_handover();
          ref.note_handover();
          break;
        case 7:
          if (rng.chance(0.5)) {
            const double u = rng.uniform(0.0, 1.0);
            arb.set_load_override(dir, u);
            ref.set_load_override(dir, u);
          } else {
            arb.clear_load_override(dir);
            ref.clear_load_override(dir);
          }
          break;
        case 8:
          t = t + Duration::seconds(2);
          arb.reallocate(t);
          ref.reallocate(t);
          break;
        default:
          t = t + Duration::seconds(2);
          for (const int d : {CellArbiter::kUp, CellArbiter::kDown}) {
            ASSERT_EQ(bits(arb.utilization(d, t)), bits(ref.utilization(d, t)))
                << "seed " << seed << " step " << step << " dir " << d;
          }
          break;
      }
      ASSERT_EQ(arb.members(), ref.members());
      for (std::size_t k = 0; k < ref.members(); ++k) {
        for (const int d : {CellArbiter::kUp, CellArbiter::kDown}) {
          ASSERT_EQ(bits(arb.allocation_at(k, d).bits_per_second()),
                    bits(ref.allocation_at(k, d)))
              << "seed " << seed << " step " << step << " member " << ref.id_at(k);
        }
      }
      const CellArbiter::Stats& a = arb.stats();
      const CellArbiter::Stats& r = ref.stats();
      ASSERT_EQ(a.attaches, r.attaches);
      ASSERT_EQ(a.detaches, r.detaches);
      ASSERT_EQ(a.handovers, r.handovers);
      ASSERT_EQ(a.reallocations, r.reallocations);
      ASSERT_EQ(a.epoch, r.epoch);
    }
    // Handover-only epochs were closed without a water-filling run.
    EXPECT_LT(arb.recomputes(), arb.stats().reallocations) << "seed " << seed;
  }
}

TEST(CellArbiter, FillOrderSortMatchesStableSort) {
  using Entry = CellArbiter::FillEntry;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  // The sort against std::stable_sort on the key; `member` is the input
  // position, so equal keys must come out in input order.
  const auto check = [&](const std::vector<double>& keys, bool fast, const char* what) {
    std::vector<Entry> entries;
    for (std::size_t i = 0; i < keys.size(); ++i) entries.push_back({i, 1.0, keys[i]});
    std::vector<Entry> expected = entries;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Entry& a, const Entry& b) { return a.normalized < b.normalized; });
    std::vector<Entry> tmp;
    EXPECT_EQ(CellArbiter::sort_fill_order(entries, tmp), fast) << what;
    ASSERT_EQ(entries.size(), expected.size()) << what;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(entries[i].member, expected[i].member) << what << " at " << i;
      ASSERT_EQ(bits(entries[i].normalized), bits(expected[i].normalized)) << what;
    }
  };
  Rng rng{12};
  // Sixty clusters of about five keys: base + j with j < 4 share the
  // base's top three bytes (bits 40-63), so the prefix passes leave each
  // cluster in input order and the insertion pass orders it.
  std::vector<double> shared;
  for (int i = 0; i < 300; ++i) {
    const double base = 1.37e6 * static_cast<double>(rng.uniform_int(1, 60));
    shared.push_back(base + static_cast<double>(rng.uniform_int(0, 3)));
  }
  check(shared, true, "shared prefixes");
  // Exact ties only, and ties mixed with distinct keys.
  check(std::vector<double>(200, 25e6), true, "all equal");
  std::vector<double> ties;
  for (int i = 0; i < 200; ++i) ties.push_back(25e6 * static_cast<double>(rng.uniform_int(1, 4)));
  check(ties, true, "ties");
  check({}, true, "empty");
  check({3.0}, true, "single");
  // An adversarial cluster: one prefix, low bits in descending order, among
  // keys of other prefixes. The insertion pass would move n^2 / 2 entries;
  // its budget trips and the full radix finishes. Ties inside the cluster
  // keep input order there too.
  std::vector<double> cluster;
  for (int i = 0; i < 256; ++i) {
    cluster.push_back(1e7 + static_cast<double>((255 - i) / 2));
    if (i % 4 == 0) cluster.push_back(rng.uniform(1.0, 4e8));
  }
  check(cluster, false, "adversarial cluster");
  // A short descending cluster inside the budget stays on the fast path.
  std::vector<double> small;
  for (int i = 0; i < 64; ++i) {
    small.push_back(i < 4 ? 1e7 - static_cast<double>(i) : 1e9 + static_cast<double>(i) * 1e6);
  }
  check(small, true, "short cluster");
}

// ---------------------------------------------------- fleet integration

TEST(Fleet, SizeOneIsBitIdenticalToNoFleet) {
  // Two simulations, same seed: one with a size-1 fleet installed, one bare.
  // Every capacity query must return the same bits.
  sim::Simulator bare_sim{77};
  sim::Network bare_net{bare_sim};
  leo::StarlinkAccess bare{bare_net, {}};

  sim::Simulator fleet_sim{77};
  sim::Network fleet_net{fleet_sim};
  leo::StarlinkAccess access{fleet_net, {}};
  Fleet::Config config;
  config.size = 1;
  Fleet fleet{fleet_sim, access, config};
  ASSERT_EQ(access.cell_share_model(), &fleet);
  EXPECT_EQ(fleet.terminal_count(), 0u);
  EXPECT_EQ(fleet_sim.pending_events(), 0u)
      << "a size-1 fleet must stay event-silent";

  for (double t : {0.0, 1.0, 2.0, 30.0, 600.0, 3599.0}) {
    EXPECT_EQ(access.downlink_capacity(at(t)).bits_per_second(),
              bare.downlink_capacity(at(t)).bits_per_second());
    EXPECT_EQ(access.uplink_capacity(at(t)).bits_per_second(),
              bare.uplink_capacity(at(t)).bits_per_second());
  }
}

TEST(Fleet, SpeedtestPinSizeOneMatchesLegacyPath) {
  // The fig5 regression: the full speedtest campaign with fleet.size=1 must
  // reproduce the no-fleet campaign byte-for-byte.
  measure::SpeedtestCampaign::Config config;
  config.seed = 4;
  config.tests = 2;
  const auto legacy = measure::SpeedtestCampaign::run(config);
  config.fleet.size = 1;
  const auto pinned = measure::SpeedtestCampaign::run(config);
  ASSERT_EQ(legacy.mbps.size(), pinned.mbps.size());
  for (std::size_t i = 0; i < legacy.mbps.size(); ++i) {
    EXPECT_EQ(legacy.mbps.values()[i], pinned.mbps.values()[i]);
  }
}

TEST(Fleet, ContentionChangesTheSpeedtestAndTerminates) {
  // A populated fleet must (a) change the measured capacity relative to the
  // synthetic-load path and (b) never keep Simulator::run() alive after the
  // workload drains (the daemon-timer contract).
  measure::SpeedtestCampaign::Config config;
  config.seed = 4;
  config.tests = 1;
  const auto legacy = measure::SpeedtestCampaign::run(config);
  config.fleet.size = 40;
  const auto contended = measure::SpeedtestCampaign::run(config);  // must return
  ASSERT_EQ(contended.mbps.size(), 1u);
  EXPECT_NE(legacy.mbps.values()[0], contended.mbps.values()[0]);
}

TEST(FleetCampaign, TicksForTheWholeDuration) {
  FleetCampaign::Config config;
  config.seed = 9;
  config.duration = Duration::seconds(60);
  config.fleet.size = 30;
  const auto r = FleetCampaign::run(config);
  // Construction tick at t=0 plus one per 2 s epoch through t=60.
  EXPECT_GE(r.epochs, 30u);
  EXPECT_LE(r.epochs, 32u);
  EXPECT_EQ(r.terminals, 29u);
  EXPECT_GT(r.cells, 0u);
  EXPECT_GT(r.attaches, 0u) << "demand sessions should toggle members active";
  EXPECT_GT(r.cell_util_down.total_count(), 0u);
}

TEST(FleetCampaign, LoadSurgeScenarioComposesWithContention) {
  const auto scenario = std::make_shared<scenario::Scenario>(scenario::Scenario::parse(
      "scenario surge\nload_surge start=0s end=10m utilization=0.93 direction=down\n"));
  FleetCampaign::Config config;
  config.seed = 9;
  config.duration = Duration::seconds(60);
  config.fleet.size = 30;
  const auto clear = FleetCampaign::run(config);
  config.scenario = scenario;
  const auto surged = FleetCampaign::run(config);
  ASSERT_FALSE(clear.foreground_down_mbps.empty());
  ASSERT_FALSE(surged.foreground_down_mbps.empty());
  // Utilization pinned at the ceiling: the foreground sees the minimum.
  // (The construction-time epoch samples before the injector's t=0 event
  // fires, so check the median, not the mean.)
  EXPECT_LT(surged.foreground_down_mbps.summary().mean(),
            clear.foreground_down_mbps.summary().mean());
  const double nominal = leo::StarlinkAccess::Config{}.cell_downlink.bits_per_second();
  const double ceiling = leo::StarlinkAccess::Config{}.downlink_load.ceiling;
  EXPECT_NEAR(surged.foreground_down_mbps.median(), nominal * (1.0 - ceiling) / 1e6, 1e-6);
}

TEST(FleetCampaign, MergedResultIsJobsInvariant) {
  FleetCampaign::Config config;
  config.seed = 21;
  config.duration = Duration::seconds(40);
  config.fleet.size = 60;
  const auto serial = runner::run_merged<FleetCampaign>({3, 1}, config);
  const auto parallel = runner::run_merged<FleetCampaign>({3, 3}, config);
  EXPECT_EQ(serial.epochs, parallel.epochs);
  EXPECT_EQ(serial.attaches, parallel.attaches);
  EXPECT_EQ(serial.handovers, parallel.handovers);
  EXPECT_EQ(serial.reallocations, parallel.reallocations);
  EXPECT_EQ(serial.cell_util_down.total_count(), parallel.cell_util_down.total_count());
  EXPECT_EQ(serial.cell_util_down.pooled().mean(), parallel.cell_util_down.pooled().mean());
  EXPECT_EQ(serial.cell_util_down.pooled_quantile(0.5),
            parallel.cell_util_down.pooled_quantile(0.5));
  EXPECT_EQ(serial.terminal_down_mbps.pooled().mean(),
            parallel.terminal_down_mbps.pooled().mean());
  ASSERT_EQ(serial.foreground_down_mbps.size(), parallel.foreground_down_mbps.size());
  EXPECT_EQ(serial.foreground_down_mbps.summary().mean(),
            parallel.foreground_down_mbps.summary().mean());
}

// ------------------------------------- aggregation, sharding, vantages

void expect_keyed_equal(const stats::KeyedSamples& a, const stats::KeyedSamples& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.groups().begin();
  for (const auto& [key, ga] : a.groups()) {
    ASSERT_EQ(key, ib->first);
    const stats::KeyedSamples::Group& gb = ib->second;
    EXPECT_EQ(ga.summary.count(), gb.summary.count());
    EXPECT_EQ(ga.summary.sum(), gb.summary.sum());
    EXPECT_EQ(ga.summary.mean(), gb.summary.mean());
    EXPECT_EQ(ga.summary.min(), gb.summary.min());
    EXPECT_EQ(ga.summary.max(), gb.summary.max());
    EXPECT_EQ(ga.counts, gb.counts);
    ++ib;
  }
}

TEST(FleetCampaign, ShardedEpochsAreByteIdenticalToSerial) {
  // The tentpole determinism contract: any shard count produces the same
  // bits as the serial reference loop, distributions included.
  FleetCampaign::Config config;
  config.seed = 21;
  config.duration = Duration::seconds(40);
  config.fleet.size = 400;
  config.fleet.shards = 1;
  const auto serial = FleetCampaign::run(config);
  for (int shards : {2, 4, 8}) {
    config.fleet.shards = shards;
    const auto sharded = FleetCampaign::run(config);
    EXPECT_EQ(serial.epochs, sharded.epochs);
    EXPECT_EQ(serial.attaches, sharded.attaches);
    EXPECT_EQ(serial.detaches, sharded.detaches);
    EXPECT_EQ(serial.handovers, sharded.handovers);
    EXPECT_EQ(serial.reallocations, sharded.reallocations);
    expect_keyed_equal(serial.cell_util_down, sharded.cell_util_down);
    expect_keyed_equal(serial.cell_util_up, sharded.cell_util_up);
    expect_keyed_equal(serial.terminal_down_mbps, sharded.terminal_down_mbps);
    ASSERT_EQ(serial.foreground_down_mbps.size(), sharded.foreground_down_mbps.size());
    for (std::size_t i = 0; i < serial.foreground_down_mbps.size(); ++i) {
      EXPECT_EQ(serial.foreground_down_mbps.values()[i],
                sharded.foreground_down_mbps.values()[i]);
    }
  }
}

TEST(FleetCampaign, AggregationPreservesForegroundBytes) {
  // Idle-cell aggregation only replaces cells the foreground never touches;
  // the measured stack's capacity series must not move by a single bit.
  FleetCampaign::Config config;
  config.seed = 9;
  config.duration = Duration::seconds(60);
  config.fleet.size = 5000;
  config.fleet.placement = Placement::continental_europe();
  const auto hot = FleetCampaign::run(config);
  config.fleet.aggregate_idle = true;
  const auto agg = FleetCampaign::run(config);

  EXPECT_EQ(hot.epochs, agg.epochs);
  ASSERT_EQ(hot.foreground_down_mbps.size(), agg.foreground_down_mbps.size());
  for (std::size_t i = 0; i < hot.foreground_down_mbps.size(); ++i) {
    EXPECT_EQ(hot.foreground_down_mbps.values()[i], agg.foreground_down_mbps.values()[i]);
    EXPECT_EQ(hot.foreground_up_mbps.values()[i], agg.foreground_up_mbps.values()[i]);
  }

  // Shape: the hot set collapses to the foreground cell, everything else
  // folds into supercell counters that conserve the fleet's population.
  EXPECT_GT(hot.cells, 100u);
  EXPECT_EQ(agg.cells, 1u);
  EXPECT_GT(agg.supercells, 1u);
  EXPECT_EQ(hot.aggregated_terminals, 0u);
  EXPECT_EQ(agg.terminals, hot.terminals) << "aggregation must conserve the population";
  EXPECT_GE(agg.aggregated_terminals, hot.terminals - 100)
      << "only the foreground cell's own members stay hot";
  // Aggregates still contribute per-supercell utilization samples.
  EXPECT_GT(agg.cell_util_down.size(), 1u);
}

TEST(Fleet, PromoteDemoteRoundTripRestoresAggregates) {
  sim::Simulator sim{77};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  Fleet::Config config;
  config.size = 2000;
  config.placement = Placement::continental_europe();
  config.aggregate_idle = true;
  Fleet fleet{sim, access, config};

  const std::vector<Fleet::Aggregate> before = fleet.aggregates();
  const std::size_t hot_before = fleet.cell_count();
  const CellId home = fleet.foreground_cell();
  const CellArbiter::Stats totals_before = fleet.totals();

  const leo::GeoPoint berlin{52.52, 13.40};
  ASSERT_TRUE(fleet.set_foreground_position(berlin, sim.now()));
  EXPECT_NE(fleet.foreground_cell(), home);
  ASSERT_TRUE(fleet.set_foreground_position(access.config().terminal, sim.now()));
  EXPECT_EQ(fleet.foreground_cell(), home);

  // Deterministic round trip: the aggregate counters and the hot set are
  // exactly what they were before the excursion.
  const std::vector<Fleet::Aggregate>& after = fleet.aggregates();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].super, after[i].super);
    EXPECT_EQ(before[i].terminals, after[i].terminals);
    EXPECT_EQ(before[i].cells, after[i].cells);
  }
  EXPECT_EQ(fleet.cell_count(), hot_before);
  const CellArbiter::Stats totals_after = fleet.totals();
  EXPECT_GE(totals_after.attaches, totals_before.attaches)
      << "retired counters keep totals monotonic across demotion";
}

TEST(Fleet, VantagesPinCellsHotAndSplitTheElasticPool) {
  sim::Simulator sim{31};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  Fleet::Config config;
  config.size = 2000;
  config.placement = Placement::continental_europe();
  config.aggregate_idle = true;
  Fleet fleet{sim, access, config};

  const std::size_t hot0 = fleet.cell_count();
  const leo::GeoPoint amsterdam{52.37, 4.90};
  const TerminalId v1 = fleet.add_vantage(amsterdam);
  const TerminalId v2 = fleet.add_vantage(amsterdam);
  EXPECT_EQ(fleet.vantage_count(), 2u);
  EXPECT_EQ(fleet.vantage_cell(v1), fleet.vantage_cell(v2));
  EXPECT_EQ(fleet.cell_count(), hot0 + 1) << "co-resident vantages share one hot cell";

  const TimePoint now = sim.now();
  const double f1 = fleet.vantage_available_fraction(v1, CellArbiter::kDown, now);
  const double f2 = fleet.vantage_available_fraction(v2, CellArbiter::kDown, now);
  EXPECT_GT(f1, 0.0);
  EXPECT_DOUBLE_EQ(f1, f2) << "equal weights split the elastic pool evenly";
  CellArbiter* arb = fleet.arbiter(fleet.vantage_cell(v1));
  ASSERT_NE(arb, nullptr);
  EXPECT_NEAR(f1 + f2, arb->available_fraction(CellArbiter::kDown, now), 1e-12);

  // A foreground excursion through the vantage cell must not demote it.
  ASSERT_TRUE(fleet.set_foreground_position(amsterdam, sim.now()));
  ASSERT_TRUE(fleet.set_foreground_position(access.config().terminal, sim.now()));
  EXPECT_NE(fleet.arbiter(fleet.vantage_cell(v1)), nullptr)
      << "pinned cells survive demotion";
  EXPECT_EQ(fleet.cell_count(), hot0 + 1);
}

// ------------------------------------------------ cached demand state

// Every background member of every hot cell holds exactly the demand the
// model gives at `now`: the per-cell session cache never serves a stale
// window. Returns how many members are active.
int expect_demands_current(Fleet& fleet, TimePoint now) {
  int active = 0;
  for (const Placement::CellRange& r : fleet.placement().cells()) {
    const CellArbiter* arb = fleet.arbiter(r.cell);
    if (arb == nullptr) continue;
    for (std::uint32_t k = 0; k < r.count; ++k) {
      const TerminalId id = r.first + k;
      const DemandModel::Demand d = fleet.demand_model().at(fleet.terminal_seed(id), now);
      EXPECT_EQ(arb->demand(id, CellArbiter::kDown).bits_per_second(),
                d.down.bits_per_second())
          << "terminal " << id << " at " << now.to_seconds() << " s";
      EXPECT_EQ(arb->demand(id, CellArbiter::kUp).bits_per_second(), d.up.bits_per_second())
          << "terminal " << id << " at " << now.to_seconds() << " s";
      if (d.active()) ++active;
    }
  }
  return active;
}

class CachedDemand : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(CachedDemand, ArbiterHoldsTheModelDemandAfterEveryEpoch) {
  const auto [amplitude, shards] = GetParam();
  sim::Simulator sim{13};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  Fleet::Config config;
  config.size = 800;
  config.shards = shards;
  config.demand.diurnal_amplitude = amplitude;
  config.demand.diurnal_period = Duration::minutes(6);  // duty moves within the run
  sim.schedule_in(Duration::hours(1), [] {});  // keeps the epoch timer armed
  Fleet fleet{sim, access, config};
  ASSERT_GT(fleet.cell_count(), 3u) << "a flat grid with several hot cells";

  int active_epochs = 0;
  for (int epoch = 0; epoch <= 120; ++epoch) {  // 4 simulated minutes
    if (epoch > 0) sim.run_for(config.epoch);
    if (expect_demands_current(fleet, sim.now()) > 0) ++active_epochs;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(fleet.epochs(), 121u);
  EXPECT_GT(active_epochs, 100);
}

INSTANTIATE_TEST_SUITE_P(DiurnalAndShards, CachedDemand,
                         ::testing::Combine(::testing::Values(0.0, 0.3),
                                            ::testing::Values(1, 4)));

// A mobile foreground promotes a cell every few epochs and demotes the one
// it left; hot cells skip their window scan until their earliest window
// ends. After every tick, every hot member still holds the model's demand.
TEST(Fleet, CachedDemandEqualsModelEveryEpoch) {
  const leo::GeoPoint route[] = {
      {52.37, 4.90}, {52.52, 13.40}, {48.86, 2.35}, {50.85, 4.35}, {45.46, 9.19}};
  for (const double amplitude : {0.0, 0.3}) {
    sim::Simulator sim{53};
    sim::Network net{sim};
    leo::StarlinkAccess access{net, {}};
    Fleet::Config config;
    config.size = 20000;
    config.placement = Placement::continental_europe();
    config.aggregate_idle = true;
    config.demand.diurnal_amplitude = amplitude;
    config.demand.diurnal_period = Duration::minutes(6);
    sim.schedule_in(Duration::hours(1), [] {});
    Fleet fleet{sim, access, config};
    int active_epochs = 0;
    for (int epoch = 0; epoch <= 150; ++epoch) {  // 5 simulated minutes
      if (epoch > 0) sim.run_for(config.epoch);
      if (expect_demands_current(fleet, sim.now()) > 0) ++active_epochs;
      if (::testing::Test::HasFailure()) return;
      if (epoch % 7 == 3) {
        ASSERT_TRUE(fleet.set_foreground_position(route[(epoch / 7) % std::size(route)],
                                                  sim.now()));
      }
    }
    EXPECT_EQ(fleet.epochs(), 151u) << "amplitude " << amplitude;
    EXPECT_GT(active_epochs, 140) << "amplitude " << amplitude;
  }
}

// A cell that goes hot mid-run has no cached windows yet: its first epoch
// must evaluate every member, not wait for session boundaries.
TEST(Fleet, PromotedCellEvaluatesEveryMemberAtItsFirstEpoch) {
  sim::Simulator sim{31};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  Fleet::Config config;
  config.size = 20000;
  config.placement = Placement::continental_europe();
  config.aggregate_idle = true;
  sim.schedule_in(Duration::hours(1), [] {});
  Fleet fleet{sim, access, config};
  const CellId home = fleet.foreground_cell();

  // One epoch after each promotion, every hot member holds its model demand
  // (the promoted cell's own members included).
  const auto first_epoch_is_current = [&](CellId promoted) {
    ASSERT_NE(fleet.arbiter(promoted), nullptr);
    ASSERT_NE(fleet.placement().find(promoted), nullptr);
    const std::uint64_t epochs = fleet.epochs();
    sim.run_for(config.epoch);
    ASSERT_EQ(fleet.epochs(), epochs + 1);
    EXPECT_GT(expect_demands_current(fleet, sim.now()), 0);
  };
  const leo::GeoPoint amsterdam{52.37, 4.90};
  const leo::GeoPoint berlin{52.52, 13.40};
  sim.run_for(Duration::seconds(61));
  const TerminalId vantage = fleet.add_vantage(amsterdam);  // promoted by a vantage
  first_epoch_is_current(fleet.vantage_cell(vantage));
  sim.run_for(Duration::seconds(61));
  ASSERT_TRUE(fleet.set_foreground_position(berlin, sim.now()));  // by the foreground
  first_epoch_is_current(fleet.foreground_cell());
  sim.run_for(Duration::seconds(61));
  // `home` was demoted while the foreground was away; hot again, its cache
  // starts over.
  ASSERT_TRUE(fleet.set_foreground_position(access.config().terminal, sim.now()));
  ASSERT_EQ(fleet.foreground_cell(), home);
  first_epoch_is_current(home);

  // Promotion alone evaluates nothing: the new cell's members hold no
  // demand until its first epoch.
  const leo::GeoPoint paris{48.86, 2.35};
  const TerminalId second = fleet.add_vantage(paris);
  const CellId paris_cell = fleet.vantage_cell(second);
  const Placement::CellRange* r = fleet.placement().find(paris_cell);
  ASSERT_NE(r, nullptr);
  const CellArbiter* arb = fleet.arbiter(paris_cell);
  for (std::uint32_t k = 0; k < r->count; ++k) {
    EXPECT_EQ(arb->demand(r->first + k, CellArbiter::kDown).bits_per_second(), 0.0);
  }
  sim.run_for(config.epoch);
  EXPECT_GT(expect_demands_current(fleet, sim.now()), 0);
}

// ------------------------------------------------ run-folded samples

// Bit equality of two groups (EXPECT_EQ on doubles would take 0.0 for -0.0).
void expect_group_bits(const stats::KeyedSamples::Group& a, const stats::KeyedSamples::Group& b,
                       std::uint64_t key) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.summary.count(), b.summary.count()) << "key " << key;
  EXPECT_EQ(bits(a.summary.mean()), bits(b.summary.mean())) << "key " << key;
  EXPECT_EQ(bits(a.summary.variance()), bits(b.summary.variance())) << "key " << key;
  EXPECT_EQ(bits(a.summary.sum()), bits(b.summary.sum())) << "key " << key;
  EXPECT_EQ(bits(a.summary.min()), bits(b.summary.min())) << "key " << key;
  EXPECT_EQ(bits(a.summary.max()), bits(b.summary.max())) << "key " << key;
  EXPECT_EQ(a.counts, b.counts) << "key " << key;
}

// `fleet`'s groups whose key passes `keep` equal `reference`'s, bit for bit.
template <class Keep>
void expect_groups_bits(const stats::KeyedSamples& fleet, const stats::KeyedSamples& reference,
                        Keep keep) {
  std::size_t kept = 0;
  for (const auto& [key, g] : fleet.groups()) {
    if (!keep(key)) continue;
    ++kept;
    const auto it = reference.groups().find(key);
    ASSERT_NE(it, reference.groups().end()) << "key " << key << " only in the fleet";
    expect_group_bits(g, it->second, key);
  }
  EXPECT_EQ(kept, reference.size());
}

// The samples the fleet folds as runs, rebuilt the slow way after every
// epoch: one add per supercell from the public analytic_util, and one per
// active hot terminal from its arbiter's allocation.
struct ReferenceSamples {
  stats::KeyedSamples util_down;
  stats::KeyedSamples util_up;
  stats::KeyedSamples terminal_mbps;

  explicit ReferenceSamples(Fleet& fleet)
      : util_down{fleet.cell_util(CellArbiter::kDown).edges()},
        util_up{fleet.cell_util(CellArbiter::kUp).edges()},
        terminal_mbps{fleet.terminal_down_mbps().edges()} {}

  void observe(Fleet& fleet, TimePoint now) {
    for (const Fleet::Aggregate& a : fleet.aggregates()) {
      const std::uint64_t key = a.super | HierarchicalGrid::kAggregateKeyBit;
      util_down.add(key, fleet.analytic_util(CellArbiter::kDown, a, now));
      util_up.add(key, fleet.analytic_util(CellArbiter::kUp, a, now));
    }
    for (const Placement::CellRange& r : fleet.placement().cells()) {
      const CellArbiter* arb = fleet.arbiter(r.cell);
      if (arb == nullptr) continue;
      for (std::uint32_t k = 0; k < r.count; ++k) {
        const TerminalId id = r.first + k;
        if (arb->demand(id, CellArbiter::kDown).is_zero() &&
            arb->demand(id, CellArbiter::kUp).is_zero()) {
          continue;
        }
        terminal_mbps.add(id, arb->allocation(id, CellArbiter::kDown).bits_per_second() / 1e6);
      }
    }
  }

  // Reading the fleet's distributions flushes its open runs.
  void expect_equal(Fleet& fleet) const {
    const auto aggregate = [](std::uint64_t key) {
      return (key & HierarchicalGrid::kAggregateKeyBit) != 0;
    };
    expect_groups_bits(fleet.cell_util(CellArbiter::kDown), util_down, aggregate);
    expect_groups_bits(fleet.cell_util(CellArbiter::kUp), util_up, aggregate);
    expect_groups_bits(fleet.terminal_down_mbps(), terminal_mbps,
                       [](std::uint64_t) { return true; });
  }
};

class RunFolds : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(RunFolds, SupercellAndTerminalSamplesEqualOneAddPerEpoch) {
  const auto [amplitude, shards] = GetParam();
  sim::Simulator sim{41};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  Fleet::Config config;
  config.size = 20000;
  config.placement = Placement::continental_europe();
  config.aggregate_idle = true;
  config.shards = shards;
  config.demand.diurnal_amplitude = amplitude;
  config.demand.diurnal_period = Duration::minutes(6);
  // A heavy foreground squeezes share-limited members: joining a hot cell
  // moves their allocations with no demand change.
  config.foreground_weight = 50.0;
  config.demand.scale_down = 4.0;
  sim.schedule_in(Duration::hours(1), [] {});
  Fleet fleet{sim, access, config};
  ReferenceSamples ref{fleet};
  ref.observe(fleet, sim.now());  // the construction-time epoch
  // Vantages keep several cells hot, so shards > 1 takes the sharded path.
  const leo::GeoPoint amsterdam{52.37, 4.90};
  const leo::GeoPoint berlin{52.52, 13.40};
  fleet.add_vantage(amsterdam);
  fleet.add_vantage({48.86, 2.35});  // Paris
  ASSERT_GE(fleet.cell_count(), 3u);
  for (int epoch = 1; epoch <= 90; ++epoch) {
    sim.run_for(config.epoch);
    ref.observe(fleet, sim.now());
    switch (epoch) {
      case 15:
        fleet.set_load_override(CellArbiter::kDown, 0.7);
        break;
      case 25:
        ref.expect_equal(fleet);  // mid-run, mid-surge
        break;
      case 35:
        fleet.clear_load_override(CellArbiter::kDown);
        break;
      case 45:
        // Promotes Berlin's cell and demotes home.
        ASSERT_TRUE(fleet.set_foreground_position(berlin, sim.now()));
        break;
      case 60:
        ref.expect_equal(fleet);
        ref.expect_equal(fleet);  // a second read with nothing new to fold
        break;
      case 70:
        // Demotes Berlin and joins the hot Amsterdam cell, whose arbiter the
        // capacity query reallocates between epochs, outside any tick.
        ASSERT_TRUE(fleet.set_foreground_position(amsterdam, sim.now()));
        (void)fleet.available_fraction(CellArbiter::kDown, sim.now());
        break;
      default:
        break;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(fleet.epochs(), 91u);
  EXPECT_GT(ref.terminal_mbps.total_count(), 1000u);
  ref.expect_equal(fleet);
}

INSTANTIATE_TEST_SUITE_P(DiurnalAndShards, RunFolds,
                         ::testing::Combine(::testing::Values(0.0, 0.3),
                                            ::testing::Values(1, 4)));

}  // namespace
}  // namespace slp::fleet
