// mobility_test.cpp — the terminal-mobility subsystem (src/mobility/).
//
// Covers the layers and their contracts: Trajectory (closed-form waypoint
// kinematics: endpoint/midpoint pins, pause dwell, parking, odometer),
// ObstructionMask (heading-relative sector gating, wrap-around sectors, the
// tunnel full gate), the HandoverScheduler candidate-filter composition
// (mask gating on top of the elevation gate and the plane-health masks), the
// fleet's foreground cell migration accounting, and the determinism bars
// from the issue: a zero-speed route produces byte-identical exports to a
// static-terminal run, and the road-trip campaign's merged exports are
// --jobs and --fast-forward invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "apps/ping.hpp"
#include "fast_forward_metrics.hpp"
#include "fleet/fleet.hpp"
#include "leo/access.hpp"
#include "leo/constellation.hpp"
#include "leo/handover.hpp"
#include "leo/places.hpp"
#include "measure/campaign.hpp"
#include "measure/testbed.hpp"
#include "mobility/mobile_terminal.hpp"
#include "mobility/obstruction.hpp"
#include "mobility/routes.hpp"
#include "mobility/trajectory.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "runner/sweep.hpp"
#include "sim/network.hpp"

namespace slp {
namespace {

using mobility::ObstructionMask;
using mobility::Trajectory;
using mobility::Waypoint;

TimePoint at(double seconds) {
  return TimePoint::epoch() + Duration::from_seconds(seconds);
}

// ------------------------------------------------------------- trajectory

TEST(Trajectory, EndpointsMidpointAndOdometer) {
  const double dist = leo::great_circle_distance_m(leo::places::kBrussels,
                                                   leo::places::kLouvainLaNeuve);
  const Trajectory traj = Trajectory::from_waypoints({
      {leo::places::kBrussels, 20.0, Duration::zero()},
      {leo::places::kLouvainLaNeuve, 0.0, Duration::zero()},
  });
  EXPECT_FALSE(traj.stationary());
  EXPECT_NEAR(traj.total_distance_m(), dist, 1.0);
  EXPECT_NEAR(traj.total_duration().to_seconds(), dist / 20.0, 0.1);

  const Trajectory::State start = traj.state_at(Duration::zero());
  EXPECT_NEAR(start.position.lat_deg, leo::places::kBrussels.lat_deg, 1e-9);
  EXPECT_NEAR(start.position.lon_deg, leo::places::kBrussels.lon_deg, 1e-9);
  EXPECT_TRUE(start.moving);
  EXPECT_NEAR(start.speed_mps, 20.0, 1e-12);
  EXPECT_NEAR(start.heading_deg,
              leo::initial_bearing_deg(leo::places::kBrussels, leo::places::kLouvainLaNeuve),
              0.5);

  // Negative elapsed clamps to the first waypoint.
  const Trajectory::State before = traj.state_at(Duration::seconds(-5));
  EXPECT_NEAR(before.position.lat_deg, leo::places::kBrussels.lat_deg, 1e-9);

  // Midpoint in time is the midpoint of a constant-speed great circle.
  const Trajectory::State mid = traj.state_at(traj.total_duration() * 0.5);
  EXPECT_NEAR(mid.distance_m, dist / 2.0, 1.0);
  EXPECT_NEAR(leo::great_circle_distance_m(leo::places::kBrussels, mid.position), dist / 2.0,
              10.0);

  // Past the end: parked at the destination, odometer complete.
  const Trajectory::State end = traj.state_at(traj.total_duration() + Duration::seconds(1));
  EXPECT_TRUE(end.finished);
  EXPECT_FALSE(end.moving);
  EXPECT_NEAR(end.speed_mps, 0.0, 1e-12);
  EXPECT_NEAR(end.position.lat_deg, leo::places::kLouvainLaNeuve.lat_deg, 1e-6);
  EXPECT_NEAR(end.position.lon_deg, leo::places::kLouvainLaNeuve.lon_deg, 1e-6);
  EXPECT_NEAR(end.distance_m, dist, 1.0);
}

TEST(Trajectory, PauseDwellsWithoutMoving) {
  const Trajectory traj = Trajectory::from_waypoints({
      {leo::places::kBrussels, 20.0, Duration::seconds(60)},
      {leo::places::kLouvainLaNeuve, 0.0, Duration::zero()},
  });
  const Trajectory::State paused = traj.state_at(Duration::seconds(30));
  EXPECT_FALSE(paused.moving);
  EXPECT_NEAR(paused.speed_mps, 0.0, 1e-12);
  EXPECT_NEAR(paused.position.lat_deg, leo::places::kBrussels.lat_deg, 1e-9);
  EXPECT_NEAR(paused.distance_m, 0.0, 1e-9);
  // Heading while paused = heading of the leg about to be driven.
  EXPECT_NEAR(paused.heading_deg,
              leo::initial_bearing_deg(leo::places::kBrussels, leo::places::kLouvainLaNeuve),
              1e-9);
  const Trajectory::State rolling = traj.state_at(Duration::seconds(61));
  EXPECT_TRUE(rolling.moving);
  EXPECT_GT(rolling.distance_m, 0.0);
}

TEST(Trajectory, NonPositiveSpeedParksTheRoute) {
  // No speed to leave Louvain-la-Neuve on: Amsterdam is unreachable.
  const Trajectory traj = Trajectory::from_waypoints({
      {leo::places::kBrussels, 20.0, Duration::zero()},
      {leo::places::kLouvainLaNeuve, 0.0, Duration::zero()},
      {leo::places::kAmsterdam, 30.0, Duration::zero()},
  });
  const double leg1 = leo::great_circle_distance_m(leo::places::kBrussels,
                                                   leo::places::kLouvainLaNeuve);
  EXPECT_NEAR(traj.total_distance_m(), leg1, 1.0);
  const Trajectory::State end = traj.state_at(Duration::days(1));
  EXPECT_TRUE(end.finished);
  EXPECT_NEAR(end.position.lat_deg, leo::places::kLouvainLaNeuve.lat_deg, 1e-6);
}

TEST(Trajectory, SingleWaypointIsStationary) {
  const Trajectory traj =
      Trajectory::from_waypoints({{leo::places::kBrussels, 0.0, Duration::zero()}});
  EXPECT_TRUE(traj.stationary());
  const Trajectory::State st = traj.state_at(Duration::seconds(100));
  EXPECT_TRUE(st.finished);
  EXPECT_FALSE(st.moving);
  EXPECT_NEAR(st.position.lat_deg, leo::places::kBrussels.lat_deg, 1e-9);
}

// ------------------------------------------------------------ obstruction

TEST(Obstruction, SectorGatesBelowItsMinElevation) {
  const ObstructionMask mask = ObstructionMask::sector(20.0, 160.0, 50.0);
  EXPECT_TRUE(mask.blocks(90.0, 40.0, 0.0));    // inside sector, below floor
  EXPECT_FALSE(mask.blocks(90.0, 60.0, 0.0));   // inside sector, above floor
  EXPECT_FALSE(mask.blocks(200.0, 5.0, 0.0));   // outside sector: open sky
  EXPECT_FALSE(mask.full_gate());
  const ObstructionMask open;
  EXPECT_FALSE(open.blocks(90.0, 0.5, 0.0));  // empty mask blocks nothing
}

TEST(Obstruction, SectorsAreHeadingRelative) {
  // The tree line sits 20..160 degrees off the *direction of travel*.
  const ObstructionMask mask = ObstructionMask::sector(20.0, 160.0, 50.0);
  // Heading east: absolute azimuth 110 is 20 degrees off the nose -> gated.
  EXPECT_TRUE(mask.blocks(110.0, 40.0, 90.0));
  // Absolute azimuth 90 is dead ahead (relative 0): outside the sector.
  EXPECT_FALSE(mask.blocks(90.0, 40.0, 90.0));
}

TEST(Obstruction, WrapAroundSectorAndTunnel) {
  const ObstructionMask wrap = ObstructionMask::sector(300.0, 60.0, 45.0);
  EXPECT_TRUE(wrap.blocks(350.0, 30.0, 0.0));
  EXPECT_TRUE(wrap.blocks(30.0, 30.0, 0.0));
  EXPECT_FALSE(wrap.blocks(120.0, 30.0, 0.0));

  const ObstructionMask tunnel = ObstructionMask::tunnel();
  EXPECT_TRUE(tunnel.full_gate());
  EXPECT_TRUE(tunnel.blocks(0.0, 89.9, 0.0));
  EXPECT_TRUE(tunnel.blocks(213.0, 45.0, 77.0));
}

// --------------------------------------------- scheduler filter composition

TEST(Handover, CandidateFilterComposesWithElevationGate) {
  leo::Constellation shell{leo::Constellation::Config{}};
  leo::HandoverScheduler::Config cfg;
  cfg.terminal = leo::places::kLouvainLaNeuve;
  cfg.gateways = leo::default_european_gateways();
  leo::HandoverScheduler sched{shell, cfg, Rng{99}};

  const TimePoint t = at(30.0);
  ASSERT_TRUE(sched.path_at(t).connected);
  const leo::SatIndex unfiltered = sched.path_at(t).sat;

  // A reject-everything filter is a tunnel: the slot goes unconnected even
  // though satellites are visible.
  sched.set_candidate_filter([](const leo::Constellation::VisibleSat&, double) {
    return false;
  });
  sched.invalidate();
  EXPECT_FALSE(sched.path_at(t).connected);

  // Uninstalling restores the exact pre-filter choice: the per-slot forked
  // RNG makes the recompute identical to never having filtered.
  sched.set_candidate_filter(nullptr);
  sched.invalidate();
  ASSERT_TRUE(sched.path_at(t).connected);
  EXPECT_EQ(sched.path_at(t).sat, unfiltered);

  // A mask-shaped filter composes on top of the dish elevation gate: every
  // serving satellite clears the raised floor.
  sched.set_candidate_filter([](const leo::Constellation::VisibleSat& s, double) {
    return s.elevation_deg >= 40.0;
  });
  sched.invalidate();
  for (int slot = 0; slot < 40; ++slot) {
    const auto& p = sched.path_at(TimePoint::epoch() + Duration::seconds(15 * slot));
    if (p.connected) {
      EXPECT_GE(p.terminal_elevation_deg, 40.0);
    }
  }

  // ... and with the fault-injection health masks.
  sched.set_plane_health(7, false);
  sched.invalidate();
  for (int slot = 0; slot < 40; ++slot) {
    const auto& p = sched.path_at(TimePoint::epoch() + Duration::seconds(15 * slot));
    if (p.connected) {
      EXPECT_GE(p.terminal_elevation_deg, 40.0);
      EXPECT_NE(p.sat.plane, 7);
    }
  }
}

// ------------------------------------------------------------ cell migration

TEST(FleetMigration, ForegroundCrossesCellBoundariesWithAccounting) {
  sim::Simulator sim{77};
  sim::Network net{sim};
  leo::StarlinkAccess access{net, {}};
  fleet::Fleet::Config config;
  config.size = 40;
  fleet::Fleet fleet{sim, access, config};

  const fleet::CellId home = fleet.foreground_cell();
  const auto before = fleet.totals();

  // Same position: no boundary crossed, no membership churn.
  EXPECT_FALSE(fleet.set_foreground_position(leo::places::kLouvainLaNeuve, at(5.0)));
  EXPECT_EQ(fleet.foreground_cell(), home);
  EXPECT_EQ(fleet.totals().attaches, before.attaches);
  EXPECT_EQ(fleet.totals().detaches, before.detaches);

  // ~120 km north-east: far outside the home cell.
  EXPECT_TRUE(fleet.set_foreground_position(leo::GeoPoint{51.7, 5.6, 0.0}, at(10.0)));
  EXPECT_NE(fleet.foreground_cell(), home);
  EXPECT_EQ(fleet.totals().attaches, before.attaches + 1);
  EXPECT_EQ(fleet.totals().detaches, before.detaches + 1);

  // Driving back re-homes into the original cell.
  EXPECT_TRUE(fleet.set_foreground_position(leo::places::kLouvainLaNeuve, at(20.0)));
  EXPECT_EQ(fleet.foreground_cell(), home);
  EXPECT_EQ(fleet.totals().attaches, before.attaches + 2);
  EXPECT_EQ(fleet.totals().detaches, before.detaches + 2);
}

// ------------------------------------------------------------- determinism

obs::Options full_obs() {
  obs::Options opts;
  opts.metrics = true;
  opts.trace = true;
  opts.provenance = true;
  return opts;
}

TEST(MobilityDeterminism, ZeroSpeedRouteExportsMatchStaticRun) {
  // A parked mobile terminal must be observationally absent: byte-identical
  // metrics, trace and provenance exports to a run with no mobility at all.
  const auto run_once = [](bool with_parked_terminal) {
    measure::TestbedConfig cfg;
    cfg.seed = 5;
    cfg.obs = full_obs();
    if (with_parked_terminal) {
      cfg.mobility.route = *mobility::routes::lookup("rural");
      cfg.mobility.speed_scale = 0.0;
    }
    measure::Testbed bed{cfg};
    if (with_parked_terminal) {
      EXPECT_NE(bed.mobility(), nullptr);
      EXPECT_FALSE(bed.mobility()->plan_active());
    } else {
      EXPECT_EQ(bed.mobility(), nullptr);
    }
    apps::PingApp::Config ping_cfg;
    ping_cfg.target = bed.anchor(0).host->addr();
    ping_cfg.count = 4;
    ping_cfg.flow = 1;
    apps::PingApp app{bed.client(measure::AccessKind::kStarlink), ping_cfg};
    app.start();
    bed.sim().run();
    return bed.sim().take_obs();
  };
  const obs::Snapshot without = run_once(false);
  const obs::Snapshot with = run_once(true);
  EXPECT_EQ(obs::metrics_json(without), obs::metrics_json(with));
  EXPECT_EQ(obs::trace_jsonl(without.events), obs::trace_jsonl(with.events));
  EXPECT_EQ(obs::breakdown_json(without), obs::breakdown_json(with));
}

TEST(MobilityDeterminism, RoadTripExportsAreJobsInvariant) {
  measure::RoadTripCampaign::Config config;
  config.route = "highway";
  config.duration = Duration::minutes(3);
  config.obs = full_obs();
  const auto one = runner::run_merged<measure::RoadTripCampaign>({2, 1}, config);
  const auto two = runner::run_merged<measure::RoadTripCampaign>({2, 2}, config);
  EXPECT_EQ(obs::metrics_json(one.obs), obs::metrics_json(two.obs));
  EXPECT_EQ(obs::trace_jsonl(one.obs.events), obs::trace_jsonl(two.obs.events));
  EXPECT_EQ(one.probes_sent, two.probes_sent);
  EXPECT_EQ(one.probes_lost, two.probes_lost);
  EXPECT_EQ(one.reroutes, two.reroutes);
  EXPECT_GT(one.probes_sent, 0u);
}

TEST(MobilityDeterminism, RoadTripExportsAreFastForwardInvariant) {
  measure::RoadTripCampaign::Config config;
  config.route = "highway";
  config.duration = Duration::minutes(3);
  config.obs = full_obs();
  config.fast_forward = true;
  const auto on = runner::run_merged<measure::RoadTripCampaign>({1, 1}, config);
  config.fast_forward = false;
  const auto off = runner::run_merged<measure::RoadTripCampaign>({1, 1}, config);
  EXPECT_EQ(strip_event_count(obs::metrics_json(on.obs)),
            strip_event_count(obs::metrics_json(off.obs)));
  EXPECT_EQ(obs::trace_jsonl(on.obs.events), obs::trace_jsonl(off.obs.events));
  EXPECT_EQ(on.probes_sent, off.probes_sent);
  EXPECT_EQ(on.probes_lost, off.probes_lost);
}

// ---------------------------------------------------------- campaign smoke

TEST(RoadTrip, HighwayRunProducesMotionArtifacts) {
  measure::RoadTripCampaign::Config config;
  config.route = "highway";
  config.fleet.size = 8;  // cell migrations need a fleet to migrate within
  const auto r = measure::RoadTripCampaign::run(config);
  EXPECT_GT(r.route_km, 80.0);
  EXPECT_GT(r.probes_sent, 1000u);
  EXPECT_GT(r.reroutes, 0u);          // in-motion handover pressure fired
  EXPECT_EQ(r.tunnels, 2u);           // the E40 run has two full gates
  EXPECT_GT(r.cell_migrations, 0u);   // Brussels -> Liege crosses cells
  EXPECT_FALSE(r.outage_s.empty());   // the tunnels force outages
  EXPECT_GT(r.outage_s.max(), 10.0);  // the long tunnel at highway speed
}

TEST(RoadTrip, UnknownRouteThrows) {
  measure::RoadTripCampaign::Config config;
  config.route = "does-not-exist";
  EXPECT_THROW((void)measure::RoadTripCampaign::run(config), std::invalid_argument);
}

}  // namespace
}  // namespace slp
