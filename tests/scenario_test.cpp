// scenario_test — the deterministic environment/fault-injection subsystem.
//
// Covers the three layers: the Scenario parser/validator (format, per-kind
// keys, overlap rules), the Injector's hook application on a live
// StarlinkAccess (rain trapezoid, health masks, depth-counted hard-outage
// gate, load overrides), and the determinism contract (scenario runs are
// byte-identical across --jobs and measurably different from clear sky).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "leo/access.hpp"
#include "measure/campaign.hpp"
#include "obs/recorder.hpp"
#include "runner/sweep.hpp"
#include "scenario/injector.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace slp::scenario {
namespace {

using namespace slp::literals;

TimePoint at(Duration d) { return TimePoint::epoch() + d; }

// ---------------------------------------------------------------- parsing

TEST(ScenarioParse, FullFormatRoundTrip) {
  const Scenario s = Scenario::parse(R"(
# a comment, then a name line
scenario kitchen-sink

rain           start=60s end=20m ramp=2m attenuation_db=8
sat_fail       start=5m  end=12m plane=3 slot=7
plane_fail     start=1h  end=2h  plane=12
gateway_outage start=2m  end=4m  gateway=1
pop_outage     start=30s duration=15s   # duration= instead of end=
load_surge     start=1m  end=5m  utilization=0.92 direction=down
maintenance    start=10m end=12m period=15s blip=1500ms
)");
  EXPECT_EQ(s.name, "kitchen-sink");
  ASSERT_EQ(s.events.size(), 7u);
  EXPECT_EQ(s.events[0].kind, EventKind::kRain);
  EXPECT_EQ(s.events[0].start, at(60_s));
  EXPECT_EQ(s.events[0].end, at(Duration::minutes(20)));
  EXPECT_EQ(s.events[0].ramp, Duration::minutes(2));
  EXPECT_DOUBLE_EQ(s.events[0].attenuation_db, 8.0);
  EXPECT_EQ(s.events[1].kind, EventKind::kSatelliteFail);
  EXPECT_EQ(s.events[1].plane, 3);
  EXPECT_EQ(s.events[1].slot, 7);
  EXPECT_EQ(s.events[2].kind, EventKind::kPlaneFail);
  EXPECT_EQ(s.events[2].start, at(Duration::hours(1)));
  EXPECT_EQ(s.events[3].kind, EventKind::kGatewayOutage);
  EXPECT_EQ(s.events[3].gateway, 1);
  EXPECT_EQ(s.events[4].kind, EventKind::kPopOutage);
  EXPECT_EQ(s.events[4].end, at(45_s));  // start + duration
  EXPECT_EQ(s.events[5].kind, EventKind::kLoadSurge);
  EXPECT_DOUBLE_EQ(s.events[5].utilization, 0.92);
  EXPECT_EQ(s.events[5].direction, 1);
  EXPECT_EQ(s.events[6].kind, EventKind::kMaintenance);
  EXPECT_EQ(s.events[6].period, 15_s);
  EXPECT_EQ(s.events[6].blip, 1500_ms);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  const auto expect_error = [](std::string_view text, std::string_view needle) {
    try {
      (void)Scenario::parse(text);
      FAIL() << "expected ScenarioError for: " << text;
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string_view{e.what()}.find(needle), std::string_view::npos)
          << "got: " << e.what();
    }
  };
  expect_error("earthquake start=1s end=2s", "unknown event kind");
  expect_error("rain start=1s end=2s plane=3", "plane");       // key of another kind
  expect_error("rain start=1s", "end");                        // missing end
  expect_error("rain start=5m end=1m", "end");                 // end <= start
  expect_error("rain start=soon end=2m", "duration");          // bad duration value
  expect_error("pop_outage start=1s end=2s duration=1s", "not both");
  expect_error("load_surge start=1s end=2s direction=sideways", "up|down|both");
  expect_error("sat_fail start=1s end=2s slot=4", "plane");    // missing index
}

TEST(ScenarioParse, SameKindSameTargetOverlapIsRejected) {
  // Two rain fronts over the same window: the restore hooks would fight.
  EXPECT_THROW((void)Scenario::parse("rain start=1m end=10m\n"
                                     "rain start=5m end=15m\n"),
               ScenarioError);
  // Same satellite failing twice while already failed.
  EXPECT_THROW((void)Scenario::parse("sat_fail start=1m end=10m plane=1 slot=2\n"
                                     "sat_fail start=5m end=15m plane=1 slot=2\n"),
               ScenarioError);
  // A both-directions surge clashes with a down surge.
  EXPECT_THROW((void)Scenario::parse("load_surge start=1m end=10m utilization=0.9\n"
                                     "load_surge start=5m end=15m utilization=0.8 direction=down\n"),
               ScenarioError);
}

TEST(ScenarioParse, DifferentKindOrTargetOverlapsFreely) {
  // Rain + plane failure + surge over the same minutes: independent hooks.
  EXPECT_NO_THROW((void)Scenario::parse("rain start=1m end=10m\n"
                                        "plane_fail start=2m end=8m plane=4\n"
                                        "load_surge start=3m end=6m utilization=0.9\n"));
  // Two different satellites of the same plane may fail together.
  EXPECT_NO_THROW((void)Scenario::parse("sat_fail start=1m end=10m plane=1 slot=2\n"
                                        "sat_fail start=2m end=8m plane=1 slot=3\n"));
  // Up and down surges do not share a knob.
  EXPECT_NO_THROW((void)Scenario::parse("load_surge start=1m end=10m direction=up\n"
                                        "load_surge start=2m end=8m direction=down\n"));
  // Back-to-back same-kind windows (touching, not overlapping) are fine.
  EXPECT_NO_THROW((void)Scenario::parse("rain start=1m end=2m\n"
                                        "rain start=2m end=3m\n"));
}

TEST(ScenarioBuilders, ChainAndValidateLikeTheParser) {
  Scenario s;
  s.rain(at(1_min), at(10_min), 6.0, 30_s)
      .plane_fail(at(2_min), at(8_min), 4)
      .pop_outage(at(3_min), at(4_min));
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.events.size(), 3u);
  s.pop_outage(at(200_s), at(230_s));  // overlaps the 3m-4m pop outage
  EXPECT_THROW(s.validate(), ScenarioError);
}

TEST(ScenarioShift, MovesEveryEventAndRejectsNegativeStarts) {
  Scenario s;
  s.rain(at(1_min), at(2_min), 6.0);
  s.shift(Duration::hours(1));
  EXPECT_EQ(s.events[0].start, at(Duration::hours(1) + 1_min));
  EXPECT_EQ(s.events[0].end, at(Duration::hours(1) + 2_min));
  EXPECT_THROW(s.shift(-Duration::hours(2)), ScenarioError);
}

// ---------------------------------------------------------------- injector

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : net_{sim_}, access_{net_, leo::StarlinkAccess::Config{}} {}

  void inject(Scenario s) {
    injector_ = std::make_unique<Injector>(
        sim_, std::make_shared<const Scenario>(std::move(s)),
        Injector::Hooks{&access_});
  }

  sim::Simulator sim_{42};
  sim::Network net_;
  leo::StarlinkAccess access_;
  std::unique_ptr<Injector> injector_;
};

TEST_F(InjectorTest, RainRampsCapacityDownAndRestoresExactly) {
  const DataRate clear_sky = access_.downlink_capacity(TimePoint::epoch());
  Scenario s;
  s.rain(at(10_s), at(110_s), 10.0, 20_s);
  inject(std::move(s));

  sim_.run_until(at(5_s));
  EXPECT_DOUBLE_EQ(access_.rain_attenuation_db(), 0.0);

  // Mid-ramp: attenuation strictly between 0 and the peak.
  sim_.run_until(at(20_s));
  EXPECT_GT(access_.rain_attenuation_db(), 0.0);
  EXPECT_LT(access_.rain_attenuation_db(), 10.0);

  // Peak plateau: the full 10 dB is applied and capacity is well below
  // clear sky (relative spectral efficiency at 0 dB SNR ~ 0.29).
  sim_.run_until(at(60_s));
  EXPECT_DOUBLE_EQ(access_.rain_attenuation_db(), 10.0);
  const DataRate faded = access_.downlink_capacity(sim_.now());
  EXPECT_LT(faded.to_mbps(), clear_sky.to_mbps() * 0.6);

  // After the front: exact clear-sky restore.
  sim_.run_until(at(120_s));
  EXPECT_DOUBLE_EQ(access_.rain_attenuation_db(), 0.0);
  EXPECT_GT(injector_->stats().rain_steps, 16u);
}

TEST_F(InjectorTest, PlaneFailureMasksPlaneOnlyInsideWindow) {
  Scenario s;
  s.plane_fail(at(30_s), at(90_s), 7);
  inject(std::move(s));

  sim_.run_until(at(10_s));
  EXPECT_TRUE(access_.scheduler().satellite_healthy(leo::SatIndex{7, 0}));
  sim_.run_until(at(45_s));
  EXPECT_FALSE(access_.scheduler().satellite_healthy(leo::SatIndex{7, 3}));
  const auto& path = access_.scheduler().path_at(sim_.now());
  if (path.connected) {
    EXPECT_NE(path.sat.plane, 7);
  }
  sim_.run_until(at(100_s));
  EXPECT_TRUE(access_.scheduler().satellite_healthy(leo::SatIndex{7, 3}));
}

TEST_F(InjectorTest, GatewayOutageRehomesAndRestores) {
  Scenario s;
  s.gateway_outage(at(10_s), at(40_s), 0);
  inject(std::move(s));
  sim_.run_until(at(20_s));
  EXPECT_FALSE(access_.scheduler().gateway_healthy(0));
  const auto& path = access_.scheduler().path_at(sim_.now());
  if (path.connected) {
    EXPECT_NE(path.gateway, 0);
  }
  sim_.run_until(at(50_s));
  EXPECT_TRUE(access_.scheduler().gateway_healthy(0));
}

TEST_F(InjectorTest, HardOutageGateIsDepthCounted) {
  // A maintenance blip *inside* a PoP outage must not reopen the gate when
  // the blip ends — the outer window still holds it shut.
  Scenario s;
  s.pop_outage(at(10_s), at(60_s));
  s.maintenance(at(20_s), at(25_s), 15_s, 2_s);  // one blip: 20s..22s
  inject(std::move(s));

  sim_.run_until(at(5_s));
  EXPECT_FALSE(access_.in_hard_outage());
  sim_.run_until(at(15_s));
  EXPECT_TRUE(access_.in_hard_outage());
  sim_.run_until(at(30_s));  // blip over, pop outage still active
  EXPECT_TRUE(access_.in_hard_outage());
  sim_.run_until(at(70_s));
  EXPECT_FALSE(access_.in_hard_outage());
  EXPECT_EQ(injector_->stats().maintenance_blips, 1u);
}

TEST_F(InjectorTest, LoadSurgePinsDirectionAndReleases) {
  const auto downlink_share = [this] {
    return access_.downlink_capacity(sim_.now()).to_mbps() /
           access_.config().cell_downlink.to_mbps();
  };
  Scenario s;
  s.load_surge(at(10_s), at(40_s), 0.9, /*direction=*/1);
  inject(std::move(s));
  sim_.run_until(at(20_s));
  // Pinned: exactly (1 - 0.9) of cell capacity (clear sky, no epochs).
  EXPECT_NEAR(downlink_share(), 0.1, 1e-9);
  sim_.run_until(at(50_s));
  EXPECT_GT(downlink_share(), 0.1);  // AR(1) resumed (mean utilization 0.55)
}

TEST_F(InjectorTest, CountersAndSpansReflectTheTimeline) {
  obs::Options opts;
  opts.metrics = true;
  opts.trace = true;
  sim_.enable_obs(opts);
  Scenario s;
  s.name = "obs-check";
  s.rain(at(10_s), at(30_s), 6.0, 4_s);
  s.pop_outage(at(40_s), at(50_s));
  inject(std::move(s));
  sim_.run();

  EXPECT_EQ(injector_->stats().events_applied, 2u);
  auto snap = sim_.obs()->take_snapshot();
  EXPECT_EQ(snap.counters.at("scenario.events_applied"), 2u);
  EXPECT_EQ(snap.counters.at("scenario.rain.steps"),
            injector_->stats().rain_steps);
  std::size_t scenario_spans = 0;
  for (const auto& ev : snap.events) {
    if (ev.category == "scenario" && ev.phase == 'X') ++scenario_spans;
  }
  EXPECT_EQ(scenario_spans, 2u);
}

TEST_F(InjectorTest, SameInstantEventsApplyInScenarioOrder) {
  // Two load surges on different directions starting at the same instant,
  // plus a rain front: all start hooks fire at t=10s in file order. The
  // observable contract is that *all* of them are active right after.
  Scenario s;
  s.load_surge(at(10_s), at(20_s), 0.85, /*direction=*/0);
  s.load_surge(at(10_s), at(20_s), 0.9, /*direction=*/1);
  s.rain(at(10_s), at(20_s), 4.0);
  inject(std::move(s));
  sim_.run_until(at(15_s));
  EXPECT_DOUBLE_EQ(access_.rain_attenuation_db(), 4.0);
  const double up_share = access_.uplink_capacity(sim_.now()).to_mbps() /
                          access_.config().cell_uplink.to_mbps();
  // (1 - 0.85) x rain factor, both applied.
  EXPECT_LT(up_share, 0.15);
  EXPECT_EQ(injector_->stats().events_applied, 3u);
}

TEST(Injector, NullHooksIsAValidatedNoOp) {
  sim::Simulator sim{1};
  Scenario s;
  s.rain(TimePoint::epoch() + 1_s, TimePoint::epoch() + 2_s, 6.0);
  const Injector injector{sim, std::make_shared<const Scenario>(std::move(s)),
                          Injector::Hooks{}};
  sim.run();
  EXPECT_EQ(injector.stats().events_applied, 0u);

  Scenario bad;
  bad.rain(TimePoint::epoch() + 2_s, TimePoint::epoch() + 1_s, 6.0);
  EXPECT_THROW((Injector{sim, std::make_shared<const Scenario>(std::move(bad)),
                         Injector::Hooks{}}),
               ScenarioError);
}

// ------------------------------------------------------------- determinism

std::shared_ptr<const Scenario> rain_timeline() {
  Scenario s;
  s.name = "test-rain";
  // Heavy rain across the whole (short) speedtest campaign below.
  s.rain(TimePoint::epoch() + 5_s, TimePoint::epoch() + Duration::minutes(30), 10.0, 30_s);
  return std::make_shared<const Scenario>(std::move(s));
}

measure::SpeedtestCampaign::Config small_speedtest() {
  measure::SpeedtestCampaign::Config config;
  config.seed = 7;
  config.tests = 3;
  config.test_duration = 4_s;
  config.gap = 20_s;
  config.connections = 4;
  return config;
}

TEST(ScenarioDeterminism, MergedResultsAreIdenticalAcrossJobs) {
  auto config = small_speedtest();
  config.scenario = rain_timeline();
  config.obs.metrics = true;

  const auto serial =
      runner::run_merged<measure::SpeedtestCampaign>({/*seeds=*/2, /*jobs=*/1}, config);
  const auto parallel =
      runner::run_merged<measure::SpeedtestCampaign>({/*seeds=*/2, /*jobs=*/4}, config);

  ASSERT_EQ(serial.mbps.size(), parallel.mbps.size());
  for (std::size_t i = 0; i < serial.mbps.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.mbps.values()[i], parallel.mbps.values()[i]);
  }
  EXPECT_EQ(obs::metrics_json(serial.obs), obs::metrics_json(parallel.obs));
}

TEST(ScenarioDeterminism, RainFrontDepressesStarlinkThroughput) {
  const auto clear = measure::SpeedtestCampaign::run(small_speedtest());
  auto rainy_config = small_speedtest();
  rainy_config.scenario = rain_timeline();
  const auto rainy = measure::SpeedtestCampaign::run(rainy_config);

  ASSERT_FALSE(clear.mbps.empty());
  ASSERT_FALSE(rainy.mbps.empty());
  // 10 dB of rain leaves ~29% of clear-sky spectral efficiency; the measured
  // median must drop hard (not merely jitter).
  EXPECT_LT(rainy.mbps.median(), clear.mbps.median() * 0.7);
}

TEST(ScenarioDeterminism, ScenarioLeavesWiredAccessUntouched) {
  auto config = small_speedtest();
  config.access = measure::AccessKind::kWired;
  // Keep the packet-level 1 Gbit/s simulation short: two 1-second tests are
  // plenty to detect any scenario bleed into the wired path.
  config.tests = 2;
  config.test_duration = 1_s;
  config.connections = 2;
  const auto baseline = measure::SpeedtestCampaign::run(config);
  auto rainy_config = config;
  rainy_config.scenario = rain_timeline();
  const auto rainy = measure::SpeedtestCampaign::run(rainy_config);

  ASSERT_EQ(baseline.mbps.size(), rainy.mbps.size());
  for (std::size_t i = 0; i < baseline.mbps.size(); ++i) {
    EXPECT_DOUBLE_EQ(baseline.mbps.values()[i], rainy.mbps.values()[i]);
  }
}

TEST(ScenarioDeterminism, ExampleScenarioFilesAllLoad) {
  // Keep the shipped examples valid: parse + validate every one. Each file
  // names its scenario after its stem, with '-' for '_'.
  const std::filesystem::path dir{SLP_SOURCE_DIR "/examples/scenarios"};
  int loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (entry.path().extension() != ".scn") continue;
    SCOPED_TRACE(entry.path().string());
    const Scenario s = Scenario::load(entry.path().string());
    std::string stem = entry.path().stem().string();
    std::replace(stem.begin(), stem.end(), '_', '-');
    EXPECT_EQ(s.name, stem);
    EXPECT_FALSE(s.empty());
    ++loaded;
  }
  EXPECT_GT(loaded, 0) << "no .scn file in " << dir;
}

}  // namespace
}  // namespace slp::scenario
