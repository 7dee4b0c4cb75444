#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "leo/access.hpp"
#include "phy/gilbert_elliott.hpp"
#include "phy/load_process.hpp"
#include "phy/outage.hpp"

namespace slp::phy {
namespace {

using namespace slp::literals;
using sim::Packet;

Packet dummy_packet() {
  Packet p;
  p.size_bytes = 1200;
  return p;
}

// ------------------------------------------------------------ GilbertElliott

TEST(GilbertElliott, LosslessWhenAlwaysGood) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::hours(1000);
  cfg.loss_good = 0.0;
  GilbertElliott ge{cfg, Rng{1}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(ge.should_drop(TimePoint::epoch() + Duration::millis(i), p));
  }
  EXPECT_EQ(ge.stats().dropped, 0u);
}

TEST(GilbertElliott, LongRunLossRateMatchesStationaryChain) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(90);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliott ge{cfg, Rng{2}};
  const Packet p = dummy_packet();
  std::uint64_t drops = 0;
  const int n = 2'000'000;
  for (int i = 0; i < n; ++i) {
    // one packet every 100us -> samples the chain densely
    if (ge.should_drop(TimePoint::epoch() + Duration::micros(100) * static_cast<double>(i), p)) {
      ++drops;
    }
  }
  // Stationary P[bad] = 10 / (90+10) = 0.10.
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, 0.10, 0.01);
}

TEST(GilbertElliott, BadStateProducesConsecutiveDrops) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(50);
  cfg.mean_bad = Duration::millis(5);
  cfg.loss_bad = 1.0;
  GilbertElliott ge{cfg, Rng{3}};
  const Packet p = dummy_packet();
  // Count burst lengths of consecutive drops at 100us spacing.
  int max_burst = 0;
  int cur = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    if (ge.should_drop(TimePoint::epoch() + Duration::micros(100) * static_cast<double>(i), p)) {
      max_burst = std::max(max_burst, ++cur);
    } else {
      cur = 0;
    }
  }
  // 5ms bad state at 100us spacing -> bursts of tens of packets must occur.
  EXPECT_GE(max_burst, 10);
}

TEST(GilbertElliott, DeterministicPerSeed) {
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(10);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_bad = 0.5;
  GilbertElliott a{cfg, Rng{4}};
  GilbertElliott b{cfg, Rng{4}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 10'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(37) * static_cast<double>(i);
    EXPECT_EQ(a.should_drop(t, p), b.should_drop(t, p));
  }
}

// ------------------------------------------------------------ OutageProcess

TEST(OutageProcess, DropsEverythingInsideWindow) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(30);
  cfg.duration_mu = 0.5;
  cfg.duration_sigma = 0.2;
  OutageProcess outage{cfg, Rng{5}};
  const Packet p = dummy_packet();
  // Scan 10 minutes at 1ms; there must be at least one outage and inside it
  // every packet must drop.
  bool saw_outage = false;
  for (int i = 0; i < 600'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::millis(i);
    const bool in = outage.in_outage(t);
    const bool dropped = outage.should_drop(t, p);
    EXPECT_EQ(in, dropped);
    saw_outage |= in;
  }
  EXPECT_TRUE(saw_outage);
  EXPECT_GT(outage.stats().dropped, 0u);
}

TEST(OutageProcess, OutagesAreRareRelativeToUptime) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::hours(2);
  OutageProcess outage{cfg, Rng{6}};
  const Packet p = dummy_packet();
  std::uint64_t drops = 0;
  const int n = 1'000'000;  // one sample per 100ms over ~28 hours
  for (int i = 0; i < n; ++i) {
    if (outage.should_drop(TimePoint::epoch() + Duration::millis(100) * static_cast<double>(i),
                           p)) {
      ++drops;
    }
  }
  // Expected duty cycle ~ 1.4s / 7200s ~ 2e-4.
  EXPECT_LT(static_cast<double>(drops) / n, 0.005);
}

TEST(CompositeLossModel, DropsWhenAnyChildDrops) {
  class Never final : public sim::LossModel {
   public:
    bool should_drop(TimePoint, const Packet&) override { return false; }
  };
  class Always final : public sim::LossModel {
   public:
    bool should_drop(TimePoint, const Packet&) override { return true; }
  };
  Never never;
  Always always;
  CompositeLossModel both{{&never, &always}};
  CompositeLossModel none{{&never, &never}};
  const Packet p = dummy_packet();
  EXPECT_TRUE(both.should_drop(TimePoint::epoch(), p));
  EXPECT_FALSE(none.should_drop(TimePoint::epoch(), p));
}

TEST(CompositeLossModel, AllChildrenAdvanceEvenWhenEarlierChildDrops) {
  // The composite must consult *every* child for every packet — a dropping
  // child earlier in the chain must not short-circuit the ones after it, or
  // their clocks/stats would silently fall behind (scenario gates rely on
  // this to keep the stochastic models advancing through an outage window).
  class Counting final : public sim::LossModel {
   public:
    explicit Counting(bool drop) : drop_{drop} {}
    bool should_drop(TimePoint, const Packet&) override {
      calls++;
      return drop_;
    }
    int calls = 0;

   private:
    bool drop_;
  };
  Counting first{true};   // always drops
  Counting second{false};
  Counting third{true};
  CompositeLossModel chain{{&first, &second, &third}};
  const Packet p = dummy_packet();
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(chain.should_drop(TimePoint::epoch() + Duration::millis(i), p));
  }
  EXPECT_EQ(first.calls, n);
  EXPECT_EQ(second.calls, n);
  EXPECT_EQ(third.calls, n);
}

TEST(CompositeLossModel, StochasticChildStatsUnaffectedByDroppingSibling) {
  // A GE chain composed behind an always-dropping gate must see exactly the
  // packets (and draw exactly the randomness) it would see standing alone.
  GilbertElliott::Config cfg;
  cfg.mean_good = Duration::millis(50);
  cfg.mean_bad = Duration::millis(10);
  cfg.loss_bad = 0.7;
  GilbertElliott alone{cfg, Rng{11}};
  GilbertElliott behind{cfg, Rng{11}};
  GateLoss closed_gate;
  closed_gate.set_open(false);
  CompositeLossModel chain{{&closed_gate, &behind}};
  const Packet p = dummy_packet();
  for (int i = 0; i < 100'000; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(250) * static_cast<double>(i);
    (void)alone.should_drop(t, p);
    EXPECT_TRUE(chain.should_drop(t, p));  // the gate drops everything
  }
  EXPECT_EQ(alone.stats().dropped, behind.stats().dropped);
  EXPECT_EQ(closed_gate.dropped(), 100'000u);
}

TEST(GateLoss, OpenPassesClosedDrops) {
  GateLoss gate;
  const Packet p = dummy_packet();
  EXPECT_TRUE(gate.is_open());
  EXPECT_FALSE(gate.should_drop(TimePoint::epoch(), p));
  gate.set_open(false);
  EXPECT_TRUE(gate.should_drop(TimePoint::epoch(), p));
  gate.set_open(true);
  EXPECT_FALSE(gate.should_drop(TimePoint::epoch(), p));
  EXPECT_EQ(gate.dropped(), 1u);
}

TEST(BernoulliLoss, MatchesProbability) {
  BernoulliLoss loss{0.2, Rng{7}};
  const Packet p = dummy_packet();
  int drops = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (loss.should_drop(TimePoint::epoch(), p)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.01);
}

TEST(OutageProcess, DurationMedianMatchesLognormal) {
  // Outage durations are lognormal(mu, sigma) seconds, so the *median*
  // duration is exp(mu) exactly (the mean would be inflated by the tail).
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(20);
  cfg.duration_mu = 0.0;  // median = exp(0) = 1 s
  cfg.duration_sigma = 0.4;
  OutageProcess outage{cfg, Rng{21}};
  // Scan several hours on a 5ms grid and measure each contiguous run of
  // in_outage time.
  std::vector<double> durations_s;
  int run = 0;
  const int n = 4 * 3600 * 200;  // 4 hours at 5 ms
  for (int i = 0; i < n; ++i) {
    if (outage.in_outage(TimePoint::epoch() + Duration::millis(5) * static_cast<double>(i))) {
      ++run;
    } else if (run > 0) {
      durations_s.push_back(run * 0.005);
      run = 0;
    }
  }
  ASSERT_GE(durations_s.size(), 100u);
  std::sort(durations_s.begin(), durations_s.end());
  const double median = durations_s[durations_s.size() / 2];
  EXPECT_NEAR(median, 1.0, 0.25);
}

TEST(OutageProcess, InOutageAdvancesLazilyWithoutCountingDrops) {
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(10);
  OutageProcess outage{cfg, Rng{22}};
  EXPECT_EQ(outage.stats().outages_started, 0u);
  // One distant query advances the window chain past every skipped outage —
  // but querying is not dropping, so the drop counter must stay untouched.
  (void)outage.in_outage(TimePoint::epoch() + Duration::hours(1));
  EXPECT_GT(outage.stats().outages_started, 100u);
  EXPECT_EQ(outage.stats().dropped, 0u);
}

TEST(OutageProcess, TraceEmitsExactlyOneSpanPerWindow) {
  obs::Options opts;
  opts.trace = true;
  opts.metrics = true;
  obs::Recorder rec{opts};
  OutageProcess::Config cfg;
  cfg.mean_interarrival = Duration::seconds(15);
  OutageProcess outage{cfg, Rng{23}};
  outage.set_obs(&rec);
  const Packet p = dummy_packet();
  for (int i = 0; i < 60 * 100; ++i) {
    (void)outage.should_drop(TimePoint::epoch() + Duration::millis(10) * static_cast<double>(i),
                             p);
  }
  std::uint64_t spans = 0;
  for (const auto& ev : rec.trace().events()) {
    if (ev.category == "phy.outage" && ev.phase == 'X') ++spans;
  }
  // One span per drawn window: the constructor's first window (emitted by
  // set_obs) plus one per advance_to() replacement.
  EXPECT_EQ(spans, outage.stats().outages_started + 1);
}

// ------------------------------------------------------------ LoadProcess

TEST(LoadProcess, StaysInBounds) {
  LoadProcess::Config cfg;
  cfg.mean_utilization = 0.3;
  cfg.volatility = 0.2;  // deliberately large to stress the clamp
  LoadProcess load{cfg, Rng{8}};
  for (int i = 0; i < 100'000; ++i) {
    const double u = load.utilization(TimePoint::epoch() + Duration::seconds(i));
    EXPECT_GE(u, cfg.floor);
    EXPECT_LE(u, cfg.ceiling);
  }
}

TEST(LoadProcess, HoversAroundMean) {
  LoadProcess::Config cfg;
  cfg.mean_utilization = 0.25;
  LoadProcess load{cfg, Rng{9}};
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    sum += load.utilization(TimePoint::epoch() + Duration::seconds(10) * static_cast<double>(i));
  }
  EXPECT_NEAR(sum / n, 0.25, 0.05);
}

TEST(LoadProcess, SameTimeSameValue) {
  LoadProcess load{LoadProcess::Config{}, Rng{10}};
  const TimePoint t = TimePoint::epoch() + Duration::hours(3);
  const double u1 = load.utilization(t);
  // Query far ahead, then re-query the old time: cache must be stable.
  (void)load.utilization(t + Duration::hours(10));
  EXPECT_DOUBLE_EQ(load.utilization(t), u1);
}

TEST(LoadProcess, DiurnalComponentCreatesDayNightSwing) {
  LoadProcess::Config flat;
  flat.volatility = 0.0;
  LoadProcess::Config diurnal = flat;
  diurnal.diurnal_amplitude = 0.3;
  LoadProcess flat_load{flat, Rng{11}};
  LoadProcess diurnal_load{diurnal, Rng{11}};
  // Peak of the sine at 1/4 of the period.
  const TimePoint peak = TimePoint::epoch() + Duration::hours(6);
  const TimePoint trough = TimePoint::epoch() + Duration::hours(18);
  EXPECT_NEAR(flat_load.utilization(peak), flat_load.utilization(trough), 1e-12);
  EXPECT_GT(diurnal_load.utilization(peak), diurnal_load.utilization(trough) + 0.4);
}

TEST(LoadProcess, AvailableFractionComplementsUtilization) {
  LoadProcess load{LoadProcess::Config{}, Rng{12}};
  const TimePoint t = TimePoint::epoch() + Duration::minutes(5);
  EXPECT_DOUBLE_EQ(load.utilization(t) + load.available_fraction(t), 1.0);
}

void ExpectOverrideResumesBitIdentically(TimePoint start) {
  LoadProcess::Config cfg;
  LoadProcess plain{cfg, Rng{13}};
  LoadProcess surged{cfg, Rng{13}};
  // Surge for an hour, then clear. During the surge the value is pinned;
  // afterwards the trajectory must be *exactly* the unperturbed one, because
  // the AR(1) noise stays a pure function of the step index.
  surged.set_utilization_override(0.9);
  EXPECT_TRUE(surged.overridden());
  for (int i = 0; i < 360; ++i) {
    EXPECT_DOUBLE_EQ(surged.utilization(start + Duration::seconds(10) * static_cast<double>(i)),
                     0.9);
  }
  surged.clear_override();
  for (int i = 0; i < 2000; ++i) {
    const TimePoint t = start + Duration::hours(1) + Duration::seconds(10) * static_cast<double>(i);
    EXPECT_DOUBLE_EQ(surged.utilization(t), plain.utilization(t));
  }
}

TEST(LoadProcess, OverridePinsUtilizationAndResumesBitIdentically) {
  ExpectOverrideResumesBitIdentically(TimePoint::epoch());
}

TEST(LoadProcess, OverrideResumesBitIdenticallyAtDay140) {
  // The second H3 session's start: the first read after the surge seeks.
  ExpectOverrideResumesBitIdentically(TimePoint::epoch() + Duration::days(140));
}

TEST(LoadProcess, OverrideClampsToConfiguredBounds) {
  LoadProcess::Config cfg;
  cfg.floor = 0.1;
  cfg.ceiling = 0.8;
  LoadProcess load{cfg, Rng{14}};
  load.set_utilization_override(1.5);
  EXPECT_DOUBLE_EQ(load.utilization(TimePoint::epoch()), 0.8);
  load.set_utilization_override(0.0);
  EXPECT_DOUBLE_EQ(load.utilization(TimePoint::epoch()), 0.1);
}

/// The pre-seek algorithm, kept as the reference: every AR(1) step from t=0
/// into a vector grown on demand. The draws do not depend on the mean, diurnal
/// term or clamps, so one reference serves any config that shares `step`,
/// `volatility` and `reversion`.
class ReferenceLoad {
 public:
  ReferenceLoad(LoadProcess::Config config, Rng rng) : config_{config}, rng_{rng} {}

  double utilization(const LoadProcess::Config& c, TimePoint t) {
    const auto idx =
        static_cast<std::size_t>(std::max<std::int64_t>(0, t.ns() / config_.step.ns()));
    while (noise_.size() <= idx) {
      const double prev = noise_.empty() ? 0.0 : noise_.back();
      const double next =
          prev * (1.0 - config_.reversion) + rng_.normal(0.0, config_.volatility);
      noise_.push_back(next);
    }
    double u = c.mean_utilization + noise_[idx];
    if (c.diurnal_amplitude > 0.0) {
      const double phase =
          2.0 * std::numbers::pi * t.to_seconds() / c.diurnal_period.to_seconds();
      u += c.diurnal_amplitude * std::sin(phase);
    }
    return std::clamp(u, c.floor, c.ceiling);
  }

 private:
  LoadProcess::Config config_;
  Rng rng_;
  std::vector<double> noise_;
};

/// Zero mean and no clamps: utilization() returns the AR(1) deviation itself,
/// so a comparison sees every bit of it (0.55 + x would round some away).
LoadProcess::Config Unclamped(LoadProcess::Config c) {
  c.mean_utilization = 0.0;
  c.floor = -std::numeric_limits<double>::infinity();
  c.ceiling = std::numeric_limits<double>::infinity();
  return c;
}

/// Step indices exercising every path: small forward steps, far jumps that
/// seek, re-reads, backward restarts and interleaving; `far` adds the H3
/// session's day 140 and ping_timeline's day 146.
std::vector<std::int64_t> QueryIndices(std::uint64_t seed, Duration step, bool far) {
  const std::int64_t day = Duration::days(1).ns() / step.ns();
  Rng pick{seed ^ 0x5EEC5EEDull};
  std::vector<std::int64_t> q = {0, 1, 2, 3, 300, 299, 5000, 5001, 4999, day, 2,
                                 day + 257, day + 1, 3 * day};
  if (far) q.insert(q.end(), {140 * day, 140 * day + 1, 146 * day, 140 * day, 146 * day - 7});
  for (int i = 0; i < 24; ++i) q.push_back(pick.uniform_int(0, 3 * day + 1000));
  return q;
}

void ExpectSeekMatchesReference(const LoadProcess::Config& cfg, std::uint64_t seed, bool far) {
  const Rng rng = Rng{seed}.fork("leo/load-down");
  ReferenceLoad ref{cfg, rng};
  const LoadProcess::Config probe_cfg = Unclamped(cfg);
  LoadProcess load{cfg, rng};
  LoadProcess probe{probe_cfg, rng};
  for (const std::int64_t idx : QueryIndices(seed, cfg.step, far)) {
    // Mid-step times: the index is t / step, whatever the offset.
    const TimePoint t = TimePoint::epoch() + Duration::nanos(idx * cfg.step.ns() + seed % 97);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(load.utilization(t)),
              std::bit_cast<std::uint64_t>(ref.utilization(cfg, t)))
        << "seed=" << seed << " idx=" << idx;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.utilization(t)),
              std::bit_cast<std::uint64_t>(ref.utilization(probe_cfg, t)))
        << "seed=" << seed << " idx=" << idx;
  }
}

TEST(LoadProcess, SeekMatchesSequentialReference) {
  // The shipped Starlink pair (also the fleet's foreground ambient pair) and
  // the default config (a CellArbiter's default ambient pair).
  const leo::StarlinkAccess::Config starlink;
  const LoadProcess::Config shipped[] = {starlink.downlink_load, starlink.uplink_load,
                                         LoadProcess::Config{}};
  for (const LoadProcess::Config& cfg : shipped) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      // Days 140/146 replay ~6M reference steps per seed; a tenth of the
      // seeds take them, every seed takes the day-scale seeks.
      ExpectSeekMatchesReference(cfg, seed, seed % 10 == 0);
    }
  }
}

TEST(LoadProcess, SeekMatchesSequentialReferenceAtEdgeConfigs) {
  // volatility 0 (both trajectories start at ±0), reversion 0 (no mean
  // reversion: sequential fallback), reversion 1 (no memory: meets in one
  // step), reversion above 1 (non-monotone step: sequential fallback).
  LoadProcess::Config still;
  still.volatility = 0.0;
  LoadProcess::Config no_reversion;
  no_reversion.reversion = 0.0;
  LoadProcess::Config memoryless;
  memoryless.reversion = 1.0;
  LoadProcess::Config overshoot;
  overshoot.reversion = 1.5;
  overshoot.volatility = 0.01;
  for (const LoadProcess::Config& cfg : {still, no_reversion, memoryless, overshoot}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) ExpectSeekMatchesReference(cfg, seed, true);
  }
}

std::string ConstructionError(LoadProcess::Config cfg) {
  try {
    LoadProcess load{cfg, Rng{15}};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(LoadProcess, RejectsNonPositiveStep) {
  LoadProcess::Config cfg;
  cfg.step = Duration::seconds(0);
  EXPECT_NE(ConstructionError(cfg).find("step"), std::string::npos);
  cfg.step = Duration::seconds(-2);
  EXPECT_NE(ConstructionError(cfg).find("step"), std::string::npos);
}

TEST(LoadProcess, RejectsNegativeVolatility) {
  LoadProcess::Config cfg;
  cfg.volatility = -0.01;
  EXPECT_NE(ConstructionError(cfg).find("volatility"), std::string::npos);
  cfg.volatility = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ConstructionError(cfg).find("volatility"), std::string::npos);
}

TEST(LoadProcess, RejectsFloorAboveCeiling) {
  LoadProcess::Config cfg;
  cfg.floor = 0.9;
  cfg.ceiling = 0.5;
  EXPECT_NE(ConstructionError(cfg).find("floor"), std::string::npos);
  cfg.floor = cfg.ceiling;  // a pinned process is legal
  EXPECT_EQ(ConstructionError(cfg), "");
}

}  // namespace
}  // namespace slp::phy
