#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "leo/access.hpp"
#include "leo/constellation.hpp"
#include "leo/geodesy.hpp"
#include "leo/handover.hpp"
#include "leo/places.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace slp::leo {
namespace {

using namespace slp::literals;

// ------------------------------------------------------------ Geodesy

TEST(Geodesy, EcefOfReferencePoints) {
  const Vec3 equator = to_ecef(GeoPoint{0.0, 0.0, 0.0});
  EXPECT_NEAR(equator.x, kEarthRadiusM, 1.0);
  EXPECT_NEAR(equator.y, 0.0, 1.0);
  EXPECT_NEAR(equator.z, 0.0, 1.0);
  const Vec3 pole = to_ecef(GeoPoint{90.0, 0.0, 0.0});
  EXPECT_NEAR(pole.z, kEarthRadiusM, 1.0);
  EXPECT_NEAR(pole.x, 0.0, 1e-6 * kEarthRadiusM);
  const Vec3 high = to_ecef(GeoPoint{0.0, 90.0, 550'000.0});
  EXPECT_NEAR(high.y, kEarthRadiusM + 550'000.0, 1.0);
}

TEST(Geodesy, GreatCircleKnownDistances) {
  // Brussels <-> Amsterdam is ~174 km.
  const double d = great_circle_distance_m(places::kBrussels, places::kAmsterdam);
  EXPECT_NEAR(d, 174'000.0, 10'000.0);
  // Brussels <-> Singapore is ~10,500 km.
  const double far = great_circle_distance_m(places::kBrussels, places::kSingapore);
  EXPECT_NEAR(far, 10'500'000.0, 300'000.0);
  // Identity.
  EXPECT_NEAR(great_circle_distance_m(places::kBrussels, places::kBrussels), 0.0, 1e-6);
}

TEST(Geodesy, ElevationOfZenithSatelliteIs90) {
  const GeoPoint ground{50.0, 4.0, 0.0};
  const Vec3 overhead = to_ecef(GeoPoint{50.0, 4.0, 550'000.0});
  EXPECT_NEAR(elevation_deg(ground, overhead), 90.0, 0.01);
}

TEST(Geodesy, ElevationOfAntipodalSatelliteIsNegative) {
  const GeoPoint ground{0.0, 0.0, 0.0};
  const Vec3 antipode = to_ecef(GeoPoint{0.0, 180.0, 550'000.0});
  EXPECT_LT(elevation_deg(ground, antipode), 0.0);
}

TEST(Geodesy, SlantRangeZenithEqualsAltitude) {
  const GeoPoint ground{50.0, 4.0, 0.0};
  const Vec3 overhead = to_ecef(GeoPoint{50.0, 4.0, 550'000.0});
  EXPECT_NEAR(slant_range_m(ground, overhead), 550'000.0, 1.0);
}

TEST(Geodesy, RfPropagationDelayIsDistanceOverC) {
  // ~300 km of RF path is almost exactly 1 ms; ~300,000 km is 1 s.
  EXPECT_NEAR(rf_propagation_delay(299'792.458).to_millis(), 1.0, 1e-9);
  EXPECT_NEAR(rf_propagation_delay(299'792'458.0).to_seconds(), 1.0, 1e-9);
}

TEST(Geodesy, FiberDelayExceedsRfForSameEndpoints) {
  const Duration fiber = fiber_delay(places::kBrussels, places::kNewYork);
  const double direct_m = great_circle_distance_m(places::kBrussels, places::kNewYork);
  const Duration rf = rf_propagation_delay(direct_m);
  EXPECT_GT(fiber, rf * 2.0);  // 1.7 stretch * 1.5 glass factor = 2.55x
}

TEST(Geodesy, ElevationMaskDecidesLikeTheAngleComparison) {
  // admits(look) must equal look.elevation_deg() >= mask for every sine,
  // above all for those that round to the mask's own sine: probe the
  // nextafter neighbours of sin(mask) and of both band edges.
  for (const double mask : {-30.0, 0.0, 20.0, 25.0, 40.0, 89.0, 89.9999}) {
    const ElevationMask gate{mask};
    const double s0 = std::sin(deg_to_rad(mask));
    for (const double centre :
         {s0, s0 + ElevationMask::kSineBand, s0 - ElevationMask::kSineBand}) {
      double lo = centre;
      double hi = centre;
      for (int k = 0; k < 64; ++k) {
        for (const double s : {lo, hi}) {
          const SkyLook look{700'000.0, s};
          EXPECT_EQ(gate.admits(look), look.elevation_deg() >= mask)
              << "mask " << mask << " sine " << s;
        }
        lo = std::nextafter(lo, -2.0);
        hi = std::nextafter(hi, 2.0);
      }
    }
  }
  // Zenith: a position on the ground point itself (range 0) is at 90°.
  const Vec3 g = to_ecef(places::kLouvainLaNeuve);
  const SkyLook zenith = sky_look(g, g);
  EXPECT_EQ(zenith.range_m, 0.0);
  for (const double mask : {25.0, 89.9999, 90.0, 90.5}) {
    EXPECT_EQ(ElevationMask{mask}.admits(zenith), elevation_deg(g, g) >= mask) << mask;
  }
  // Horizon: positions along the local east direction at growing range,
  // whose sines straddle 0 by rounding, against a 0° mask.
  const Vec3 east{-std::sin(deg_to_rad(places::kLouvainLaNeuve.lon_deg)),
                  std::cos(deg_to_rad(places::kLouvainLaNeuve.lon_deg)), 0.0};
  const ElevationMask horizon{0.0};
  for (double d = 1.0; d < 3e6; d *= 1.7) {
    const Vec3 sat = g + east * d;
    EXPECT_EQ(horizon.admits(sky_look(g, sat)), elevation_deg(g, sat) >= 0.0) << d;
  }
  // Masks beyond ±90° and NaN fall back to the angle comparison.
  const SkyLook look = sky_look(g, g + Vec3{1.0, 2.0, 3.0});
  for (const double mask : {-90.0, -120.0, 90.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(ElevationMask{mask}.admits(look), look.elevation_deg() >= mask) << mask;
  }
}

// ------------------------------------------------------------ Constellation

class Shell1Test : public ::testing::Test {
 protected:
  Constellation shell_{Constellation::Config{}};
};

TEST_F(Shell1Test, CountsAndPeriod) {
  EXPECT_EQ(shell_.total_satellites(), 72 * 22);
  // 550 km circular orbit period is ~95.6 minutes.
  EXPECT_NEAR(shell_.orbital_period().to_seconds(), 5736.0, 30.0);
}

TEST_F(Shell1Test, SatellitesStayAtAltitude) {
  for (int plane = 0; plane < 72; plane += 7) {
    for (int slot = 0; slot < 22; slot += 5) {
      const Vec3 pos = shell_.position_ecef(SatIndex{plane, slot}, TimePoint::epoch() + 1000_s);
      EXPECT_NEAR(pos.norm(), kEarthRadiusM + 550'000.0, 1.0);
    }
  }
}

TEST_F(Shell1Test, SatelliteMovesAlongOrbit) {
  const SatIndex sat{0, 0};
  const Vec3 p0 = shell_.position_ecef(sat, TimePoint::epoch());
  const Vec3 p1 = shell_.position_ecef(sat, TimePoint::epoch() + 60_s);
  // Orbital speed at 550 km is ~7.6 km/s; the ECEF-frame chord over 60 s
  // is ~440 km (Earth rotation subtracts a little from the inertial 455 km).
  EXPECT_NEAR((p1 - p0).norm(), 440'000.0, 20'000.0);
}

TEST_F(Shell1Test, InclinationBoundsLatitude) {
  // A 53 deg inclined orbit never exceeds |lat| ~ 53 deg -> |z| <= r*sin(53).
  const double r = kEarthRadiusM + 550'000.0;
  const double zmax = r * std::sin(deg_to_rad(53.0)) + 1.0;
  for (int slot = 0; slot < 22; ++slot) {
    for (int minute = 0; minute < 96; minute += 3) {
      const Vec3 p =
          shell_.position_ecef(SatIndex{11, slot}, TimePoint::epoch() + Duration::minutes(minute));
      EXPECT_LE(std::abs(p.z), zmax);
    }
  }
}

TEST_F(Shell1Test, BelgiumAlwaysSeesSatellites) {
  // Full Shell 1 provides continuous coverage at 50.6N with a 25 deg mask.
  for (int minute = 0; minute < 200; minute += 1) {
    const auto visible = shell_.visible_from(places::kLouvainLaNeuve,
                                             TimePoint::epoch() + Duration::minutes(minute), 25.0);
    EXPECT_GE(visible.size(), 1u) << "no coverage at minute " << minute;
    for (const auto& v : visible) {
      EXPECT_GE(v.elevation_deg, 25.0);
      // Slant range at 25 deg elevation / 550 km altitude is at most ~1123 km.
      EXPECT_LE(v.slant_range_m, 1'200'000.0);
      EXPECT_GE(v.slant_range_m, 550'000.0);
    }
  }
}

TEST_F(Shell1Test, ActivePlanesRestrictsVisibility) {
  const TimePoint t = TimePoint::epoch();
  const auto all = shell_.visible_from(places::kLouvainLaNeuve, t, 25.0, 0);
  const auto few = shell_.visible_from(places::kLouvainLaNeuve, t, 25.0, 10);
  EXPECT_LE(few.size(), all.size());
  for (const auto& v : few) EXPECT_LT(v.sat.plane, 10);
}

TEST_F(Shell1Test, VisibilityFastPathMatchesPerSatelliteReference) {
  // The fast path's cone pre-test skips every satellite that cannot be in
  // view, and its elevation gate decides on sines; both must be *exactly*
  // equivalent (EXPECT_EQ, not NEAR) to the naive per-satellite loop over
  // position_ecef + elevation_deg, or determinism breaks between code paths.
  // The table spans the poles, the equator, both 53-degree latitudes, the
  // southern hemisphere, the antimeridian and an observer at 10 km, masks
  // from the horizon to near zenith, a full and a partial shell, and seeded
  // times up to day 200 plus some up to 200 years, where the anomaly's
  // rounding (ulp of mean_motion·t) is largest.
  const GeoPoint places_table[] = {
      places::kLouvainLaNeuve, {90.0, 0.0, 0.0},     {-90.0, 45.0, 0.0},
      {0.0, 0.0, 0.0},         {53.0, 120.0, 0.0},   {-53.0, -60.0, 0.0},
      {-33.9, 18.4, 0.0},      {12.0, 180.0, 0.0},   {-41.3, -179.99, 0.0},
      {46.5, 7.9, 10'000.0},
  };
  Rng rng{20221025};
  std::vector<TimePoint> times{TimePoint::epoch()};
  while (times.size() < 50) {
    const double seconds = rng.uniform(0.0, 200.0 * 86400.0);
    times.push_back(TimePoint::epoch() + Duration::from_seconds(seconds));
  }
  while (times.size() < 60) {
    const double seconds = rng.uniform(0.0, 200.0 * 365.0 * 86400.0);
    times.push_back(TimePoint::epoch() + Duration::from_seconds(seconds));
  }
  times.push_back(TimePoint::from_ns(std::numeric_limits<std::int64_t>::max()));
  for (const GeoPoint& ground : places_table) {
    const Vec3 g = to_ecef(ground);
    for (const double mask : {0.0, 25.0, 40.0, 89.0}) {
      for (const int active_planes : {0, 10}) {
        const int planes = active_planes == 0 ? shell_.config().num_planes : active_planes;
        for (const TimePoint t : times) {
          std::vector<Constellation::VisibleSat> reference;
          for (int plane = 0; plane < planes; ++plane) {
            for (int slot = 0; slot < shell_.config().sats_per_plane; ++slot) {
              const SatIndex sat{plane, slot};
              const Vec3 pos = shell_.position_ecef(sat, t);
              const double el = elevation_deg(g, pos);
              if (el >= mask) reference.push_back({sat, el, slant_range_m(g, pos), pos});
            }
          }
          SCOPED_TRACE(::testing::Message()
                       << "lat " << ground.lat_deg << " lon " << ground.lon_deg << " mask "
                       << mask << " planes " << active_planes << " t " << t.to_seconds());
          const auto fast = shell_.visible_from(ground, t, mask, active_planes);
          ASSERT_EQ(fast.size(), reference.size());
          for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast[i].sat.plane, reference[i].sat.plane);
            EXPECT_EQ(fast[i].sat.slot, reference[i].sat.slot);
            EXPECT_EQ(fast[i].elevation_deg, reference[i].elevation_deg);
            EXPECT_EQ(fast[i].slant_range_m, reference[i].slant_range_m);
            EXPECT_EQ(fast[i].position.x, reference[i].position.x);
            EXPECT_EQ(fast[i].position.y, reference[i].position.y);
            EXPECT_EQ(fast[i].position.z, reference[i].position.z);
          }
          EXPECT_EQ(shell_.count_visible(ground, t, mask, active_planes),
                    static_cast<int>(reference.size()));
        }
      }
    }
  }
}

TEST_F(Shell1Test, BufferOverloadMatchesReturningOverload) {
  std::vector<Constellation::VisibleSat> buf;
  for (int minute : {0, 31, 62}) {
    const TimePoint t = TimePoint::epoch() + Duration::minutes(minute);
    const auto returned = shell_.visible_from(places::kLouvainLaNeuve, t, 25.0);
    shell_.visible_from(places::kLouvainLaNeuve, t, 25.0, 0, buf);  // reused buffer
    ASSERT_EQ(buf.size(), returned.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(buf[i].sat.plane, returned[i].sat.plane);
      EXPECT_EQ(buf[i].sat.slot, returned[i].sat.slot);
      EXPECT_EQ(buf[i].elevation_deg, returned[i].elevation_deg);
      EXPECT_EQ(buf[i].slant_range_m, returned[i].slant_range_m);
    }
    EXPECT_EQ(shell_.count_visible(places::kLouvainLaNeuve, t, 25.0),
              static_cast<int>(returned.size()));
  }
}

// ------------------------------------------------------------ Handover

class HandoverTest : public ::testing::Test {
 protected:
  HandoverTest() {
    HandoverScheduler::Config cfg;
    cfg.terminal = places::kLouvainLaNeuve;
    cfg.gateways = default_european_gateways();
    scheduler_ = std::make_unique<HandoverScheduler>(shell_, cfg, Rng{99});
  }
  Constellation shell_{Constellation::Config{}};
  std::unique_ptr<HandoverScheduler> scheduler_;
};

TEST_F(HandoverTest, PathIsStableWithinSlot) {
  const auto& p1 = scheduler_->path_at(TimePoint::epoch() + 1_s);
  const SatIndex sat = p1.sat;
  const double slant = p1.terminal_slant_m;
  const auto& p2 = scheduler_->path_at(TimePoint::epoch() + 14_s);
  EXPECT_EQ(p2.sat, sat);
  EXPECT_DOUBLE_EQ(p2.terminal_slant_m, slant);
}

TEST_F(HandoverTest, PathsChangeAcrossSlots) {
  std::set<std::pair<int, int>> sats;
  for (int slot = 0; slot < 40; ++slot) {
    const auto& p = scheduler_->path_at(TimePoint::epoch() + 15_s * static_cast<double>(slot));
    ASSERT_TRUE(p.connected);
    sats.insert({p.sat.plane, p.sat.slot});
  }
  // Randomized selection over 40 slots must use several distinct satellites.
  EXPECT_GE(sats.size(), 5u);
  EXPECT_GT(scheduler_->stats().handovers, 0u);
}

TEST_F(HandoverTest, QueryOrderDoesNotChangeChoice) {
  HandoverScheduler::Config cfg;
  cfg.terminal = places::kLouvainLaNeuve;
  cfg.gateways = default_european_gateways();
  HandoverScheduler a{shell_, cfg, Rng{7}};
  HandoverScheduler b{shell_, cfg, Rng{7}};
  const TimePoint t5 = TimePoint::epoch() + 75_s;
  const TimePoint t2 = TimePoint::epoch() + 30_s;
  // a queries 5 then 2; b queries 2 then 5 -> same paths regardless.
  const SatIndex a5 = a.path_at(t5).sat;
  const SatIndex a2 = a.path_at(t2).sat;
  const SatIndex b2 = b.path_at(t2).sat;
  const SatIndex b5 = b.path_at(t5).sat;
  EXPECT_EQ(a5, b5);
  EXPECT_EQ(a2, b2);
}

TEST_F(HandoverTest, FailedPlaneIsNeverServing) {
  scheduler_->set_plane_health(7, false);
  for (int slot = 0; slot < 60; ++slot) {
    const auto& p = scheduler_->path_at(TimePoint::epoch() + 15_s * static_cast<double>(slot));
    if (p.connected) {
      EXPECT_NE(p.sat.plane, 7);
    }
  }
}

TEST_F(HandoverTest, FailedServingSatelliteReroutesWithinTheSlot) {
  const TimePoint t = TimePoint::epoch() + 5_s;
  const SatIndex serving = scheduler_->path_at(t).sat;
  // The failure invalidates the cached slot: the very next query must avoid
  // the failed satellite instead of waiting out the 15 s slot.
  scheduler_->set_satellite_health(serving, false);
  EXPECT_FALSE(scheduler_->satellite_healthy(serving));
  const auto& rerouted = scheduler_->path_at(t);
  if (rerouted.connected) {
    EXPECT_NE(rerouted.sat, serving);
  }
}

TEST_F(HandoverTest, FailedGatewayIsNeverUsed) {
  scheduler_->set_gateway_health(0, false);
  EXPECT_FALSE(scheduler_->gateway_healthy(0));
  for (int slot = 0; slot < 60; ++slot) {
    const auto& p = scheduler_->path_at(TimePoint::epoch() + 15_s * static_cast<double>(slot));
    if (p.connected) {
      EXPECT_NE(p.gateway, 0);
    }
  }
  // Out-of-range indices are ignored, not UB.
  scheduler_->set_gateway_health(99, false);
  EXPECT_TRUE(scheduler_->gateway_healthy(99));
}

TEST_F(HandoverTest, FailRestoreCycleMatchesUntouchedScheduler) {
  HandoverScheduler::Config cfg;
  cfg.terminal = places::kLouvainLaNeuve;
  cfg.gateways = default_european_gateways();
  HandoverScheduler untouched{shell_, cfg, Rng{7}};
  HandoverScheduler cycled{shell_, cfg, Rng{7}};
  const TimePoint t = TimePoint::epoch() + 45_s;
  // Fail and restore a plane before the query: the per-slot forked RNG makes
  // the recomputed choice identical to never having failed anything.
  cycled.set_plane_health(3, false);
  (void)cycled.path_at(t);
  cycled.set_plane_health(3, true);
  EXPECT_EQ(cycled.path_at(t).sat, untouched.path_at(t).sat);
  EXPECT_EQ(cycled.path_at(t).gateway, untouched.path_at(t).gateway);
}

TEST_F(HandoverTest, InvalidateRecomputesTheSameSlotDeterministically) {
  const TimePoint t = TimePoint::epoch() + 90_s;
  const SatIndex before = scheduler_->path_at(t).sat;
  scheduler_->invalidate();
  EXPECT_EQ(scheduler_->path_at(t).sat, before);
}

TEST_F(HandoverTest, PropagationDelayInPlausibleRange) {
  for (int slot = 0; slot < 50; ++slot) {
    const auto& p = scheduler_->path_at(TimePoint::epoch() + 15_s * static_cast<double>(slot));
    ASSERT_TRUE(p.connected);
    const double ms = p.propagation_one_way().to_millis();
    // Bent pipe UT->sat->GW: between ~3.7ms (2x550km) and ~9ms (2x~1300km).
    EXPECT_GE(ms, 3.6);
    EXPECT_LE(ms, 9.5);
  }
}

TEST_F(HandoverTest, PathsMatchGoldenDigests) {
  // Pinned digests of the serving path at every probed slot: satellite,
  // gateway and the bit patterns of both slant ranges and the terminal
  // elevation. The observers are Louvain-la-Neuve and the centres of the
  // 24 km fleet cells r602b31 (40°N) and r695b24 (60°N); the shell runs the
  // paper's epochs (56 planes before day 53, 72 after). The slots spread
  // over the 146-day campaign plus a few near t = 200 years, where the
  // anomaly's rounding is largest. The visibility reference test compares
  // two code paths of one build; these catch a change that moves both.
  const TimePoint feb11 = TimePoint::epoch() + Duration::days(53);
  std::vector<TimePoint> times;
  Rng rng{20221025};
  while (times.size() < 400) {
    times.push_back(TimePoint::epoch() + Duration::from_seconds(rng.uniform(0.0, 146.0 * 86400.0)));
  }
  const TimePoint far = TimePoint::epoch() + Duration::days(200 * 365);
  for (int i = 0; i < 24; ++i) times.push_back(far + Duration::minutes(37 * i));

  struct Row {
    GeoPoint terminal;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {places::kLouvainLaNeuve, 0xdf4c54dfae76d57eull},
      {{40.035971223021591, 8.8801879404855129, 0.0}, 0xacf213cf1336b338ull},
      {{60.107913669064743, 10.613718411552346, 0.0}, 0x9b763ae52919261cull},
  };
  for (const Row& row : rows) {
    HandoverScheduler::Config cfg;
    cfg.terminal = row.terminal;
    cfg.gateways = default_european_gateways();
    cfg.active_planes_fn = [feb11](TimePoint t) { return t < feb11 ? 56 : 72; };
    HandoverScheduler scheduler{shell_, cfg, Rng{99}};
    std::string bytes;
    const auto put = [&bytes](auto x) {
      char raw[sizeof x];
      std::memcpy(raw, &x, sizeof x);
      bytes.append(raw, sizeof x);
    };
    std::size_t connected = 0;
    for (const TimePoint t : times) {
      const HandoverScheduler::Path& p = scheduler.path_at(t);
      connected += p.connected ? 1 : 0;
      put(p.connected);
      put(p.sat.plane);
      put(p.sat.slot);
      put(p.gateway);
      put(p.terminal_slant_m);
      put(p.terminal_elevation_deg);
      put(p.gateway_slant_m);
    }
    const std::uint64_t digest = fnv1a64(bytes);
    EXPECT_EQ(digest, row.digest) << "lat " << row.terminal.lat_deg << ": 0x" << std::hex
                                  << digest;
    // Some slots at 60°N reach no gateway, so the unconnected path is pinned too.
    EXPECT_GT(connected, times.size() / 2);
  }
}

// ------------------------------------------------------------ StarlinkAccess

class AccessTest : public ::testing::Test {
 protected:
  AccessTest() : net_{sim_}, access_{net_, StarlinkAccess::Config{}} {}
  sim::Simulator sim_{42};
  sim::Network net_;
  StarlinkAccess access_;
};

TEST_F(AccessTest, TopologyShape) {
  EXPECT_EQ(access_.client().addr(), sim::make_addr(192, 168, 1, 100));
  EXPECT_EQ(access_.cpe().inside().addr(), sim::kCpeNatAddr);
  EXPECT_EQ(access_.cgn().inside().addr(), sim::kCgnNatAddr);
  EXPECT_EQ(access_.public_addr(), sim::make_addr(149, 6, 50, 1));
  EXPECT_EQ(net_.node_count(), 4u);
  EXPECT_EQ(net_.link_count(), 3u);
}

TEST_F(AccessTest, CapacitiesWithinEnvelope) {
  for (int i = 0; i < 500; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::minutes(i);
    const double down = access_.downlink_capacity(t).to_mbps();
    const double up = access_.uplink_capacity(t).to_mbps();
    // Bounds follow the default load-process floor/ceiling in the config.
    EXPECT_GE(down, 450.0 * 0.07 - 1e-6);
    EXPECT_LE(down, 450.0 * 0.90 + 1e-6);
    EXPECT_GE(up, 80.0 * 0.07 - 1e-6);
    EXPECT_LE(up, 80.0 * 0.8 + 1e-6);
  }
}

TEST_F(AccessTest, EpochCapacityFactorApplies) {
  StarlinkAccess::Config cfg;
  cfg.epoch_capacity_factor = [](TimePoint) { return 0.5; };
  sim::Simulator sim2{42};
  sim::Network net2{sim2};
  StarlinkAccess halved{net2, cfg};
  const TimePoint t = TimePoint::epoch() + 10_min;
  EXPECT_NEAR(halved.downlink_capacity(t).to_mbps(), access_.downlink_capacity(t).to_mbps() / 2.0,
              1e-6);
}

TEST_F(AccessTest, PingThroughAccessHasStarlinkLikeRtt) {
  // Attach a server directly at the PoP and ping it from the client.
  sim::Host& server = net_.add_host("server", sim::make_addr(203, 0, 113, 50));
  sim::Interface& pop_if = access_.pop().add_interface(sim::make_addr(203, 0, 113, 1));
  net_.connect(pop_if, server.uplink(),
               sim::Network::symmetric(DataRate::gbps(10), Duration::from_millis(1)));
  access_.pop().routes().add_route(sim::make_addr(203, 0, 113, 0), 24, pop_if);

  std::vector<double> rtts_ms;
  for (int i = 0; i < 100; ++i) {
    sim_.schedule_at(TimePoint::epoch() + Duration::seconds(5 * i), [&, i] {
      const TimePoint sent = sim_.now();
      access_.client().bind_echo_reply(static_cast<std::uint16_t>(i), [&, sent](const sim::Packet&) {
        rtts_ms.push_back((sim_.now() - sent).to_millis());
      });
      sim::Packet ping;
      ping.dst = server.addr();
      ping.proto = sim::Protocol::kIcmp;
      ping.size_bytes = 64;
      ping.icmp = sim::IcmpHeader{sim::IcmpType::kEchoRequest, static_cast<std::uint16_t>(i), 0,
                                  nullptr};
      access_.client().send(std::move(ping));
    });
  }
  sim_.run();
  ASSERT_GE(rtts_ms.size(), 95u);  // outages may eat a couple of pings
  double sum = 0.0;
  double mn = 1e9;
  double mx = 0.0;
  for (const double r : rtts_ms) {
    sum += r;
    mn = std::min(mn, r);
    mx = std::max(mx, r);
  }
  // Starlink-like: minimum around 15-30ms, mean within 30-70ms (plus the 2ms
  // server link RTT), never sub-10ms.
  EXPECT_GT(mn, 12.0);
  EXPECT_LT(mn, 40.0);
  EXPECT_GT(sum / static_cast<double>(rtts_ms.size()), 30.0);
  EXPECT_LT(sum / static_cast<double>(rtts_ms.size()), 75.0);
  EXPECT_LT(mx, 250.0);
}

TEST_F(AccessTest, TracerouteShowsTwoNatLevels) {
  sim::Host& server = net_.add_host("server", sim::make_addr(203, 0, 113, 50));
  sim::Interface& pop_if = access_.pop().add_interface(sim::make_addr(203, 0, 113, 1));
  net_.connect(pop_if, server.uplink(),
               sim::Network::symmetric(DataRate::gbps(10), Duration::from_millis(1)));
  access_.pop().routes().add_route(sim::make_addr(203, 0, 113, 0), 24, pop_if);

  std::vector<sim::Ipv4Addr> hops;
  access_.client().add_error_listener([&](const sim::Packet& p) { hops.push_back(p.src); });
  for (std::uint8_t ttl = 1; ttl <= 3; ++ttl) {
    sim_.schedule_at(TimePoint::epoch() + Duration::seconds(ttl), [&, ttl] {
      sim::Packet probe;
      probe.dst = server.addr();
      probe.src_port = static_cast<std::uint16_t>(33434 + ttl);
      probe.dst_port = 33434;
      probe.proto = sim::Protocol::kUdp;
      probe.size_bytes = 60;
      probe.ttl = ttl;
      access_.client().send(std::move(probe));
    });
  }
  sim_.run();
  ASSERT_GE(hops.size(), 2u);
  EXPECT_EQ(hops[0], sim::kCpeNatAddr);   // 192.168.1.1
  EXPECT_EQ(hops[1], sim::kCgnNatAddr);   // 100.64.0.1
}

TEST_F(AccessTest, FifoOrderPreservedDespiteJitter) {
  sim::Host& server = net_.add_host("server", sim::make_addr(203, 0, 113, 50));
  sim::Interface& pop_if = access_.pop().add_interface(sim::make_addr(203, 0, 113, 1));
  net_.connect(pop_if, server.uplink(),
               sim::Network::symmetric(DataRate::gbps(10), Duration::from_millis(1)));
  access_.pop().routes().add_route(sim::make_addr(203, 0, 113, 0), 24, pop_if);

  std::vector<std::uint64_t> arrival_order;
  server.bind(sim::Protocol::kUdp, 9000, [&](const sim::Packet& p) {
    arrival_order.push_back(p.flow_id);
  });
  for (std::uint64_t i = 0; i < 200; ++i) {
    sim::Packet p;
    p.dst = server.addr();
    p.src_port = 40'000;
    p.dst_port = 9000;
    p.proto = sim::Protocol::kUdp;
    p.size_bytes = 1200;
    p.flow_id = i;
    access_.client().send(std::move(p));
  }
  sim_.run();
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    EXPECT_LT(arrival_order[i - 1], arrival_order[i]);
  }
}

}  // namespace
}  // namespace slp::leo
