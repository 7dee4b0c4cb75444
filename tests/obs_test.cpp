#include <gtest/gtest.h>

#include <array>
#include <clocale>
#include <string>
#include <vector>

#include "obs/anomaly.hpp"
#include "obs/breakdown.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace slp::obs {
namespace {

using namespace slp::literals;

// ------------------------------------------------------------------ json

TEST(Json, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
  EXPECT_EQ(json_quote("x\"y"), "\"x\\\"y\"");
}

TEST(Json, NumbersAreDeterministicAndFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(1.0 / 0.0), "0");
  EXPECT_EQ(json_number(0.0 / 0.0), "0");
}

TEST(Json, NumbersUseDotRegardlessOfLocale) {
  // The exporters are byte-compared across processes in CI, so a host whose
  // LC_NUMERIC writes "1,5" must still produce "1.5". Skip when no
  // comma-decimal locale is installed (minimal containers).
  const std::string saved = std::setlocale(LC_ALL, nullptr);
  const char* applied = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      applied = name;
      break;
    }
  }
  if (applied == nullptr) GTEST_SKIP() << "no comma-decimal locale installed";
  const std::string shortest = json_number(1.5);
  const std::string exact = json_number_exact(0.1);
  std::setlocale(LC_ALL, saved.c_str());
  EXPECT_EQ(shortest, "1.5");
  EXPECT_EQ(exact, "0.10000000000000001");  // %.17g round-trips, '.' separator
  EXPECT_EQ(exact.find(','), std::string::npos);
}

// -------------------------------------------------------------- registry

TEST(Registry, HandlesBindToSharedCells) {
  Registry reg;
  Counter a = reg.counter("x.count");
  Counter b = reg.counter("x.count");
  a.add();
  b.add(4);
  EXPECT_EQ(reg.counters().at("x.count"), 5u);
}

TEST(Registry, UnboundHandlesAreNoops) {
  Counter c;
  Gauge g;
  HistogramHandle h;
  EXPECT_FALSE(c.bound());
  c.add(7);
  g.set(1.0);
  h.observe(2.0);  // must not crash
}

TEST(Registry, HistogramBucketsBySortedEdges) {
  Registry reg;
  const std::array<double, 3> edges{1.0, 10.0, 100.0};
  HistogramHandle h = reg.histogram("lat", edges);
  h.observe(0.5);    // bucket 0: (-inf, 1)
  h.observe(1.0);    // bucket 1: [1, 10)
  h.observe(50.0);   // bucket 2: [10, 100)
  h.observe(100.0);  // bucket 3: [100, +inf)
  h.observe(1e9);    // bucket 3
  const HistogramCell cell = reg.histograms().at("lat");
  ASSERT_EQ(cell.counts.size(), 4u);
  EXPECT_EQ(cell.counts[0], 1u);
  EXPECT_EQ(cell.counts[1], 1u);
  EXPECT_EQ(cell.counts[2], 1u);
  EXPECT_EQ(cell.counts[3], 2u);
  EXPECT_EQ(cell.total, 5u);
}

TEST(Registry, ExpEdgesGrowGeometrically) {
  const auto edges = Registry::exp_edges(1.0, 2.0, 4);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[0], 1.0);
  EXPECT_DOUBLE_EQ(edges[3], 8.0);
}

// ----------------------------------------------------------------- trace

TEST(TraceSink, DisabledSinkDropsEvents) {
  TraceSink sink{false};
  sink.instant("cat", "ev", TimePoint::epoch());
  sink.span("cat", "sp", TimePoint::epoch(), TimePoint::epoch() + 1_ms);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, ExportsChromeTraceFormat) {
  TraceSink sink{true};
  sink.instant("leo", "handover", TimePoint::epoch() + Duration::seconds(15),
               "{\"sat\":\"3/12\"}");
  sink.span("phy.outage", "outage", TimePoint::epoch() + 1_ms,
            TimePoint::epoch() + 3_ms);
  const std::string doc = trace_json(sink.events());
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"sat\":\"3/12\""), std::string::npos);
  // 15 s in fractional microseconds.
  EXPECT_NE(doc.find("\"ts\":15000000.000"), std::string::npos);
  const std::string lines = trace_jsonl(sink.events());
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

// --------------------------------------------------------------- sampler

TEST(Sampler, SamplesEveryGridPointOnce) {
  Sampler sampler{Duration::seconds(1)};
  int calls = 0;
  sampler.add_probe("x", [&calls](TimePoint) { return static_cast<double>(++calls); });
  sampler.sample_until(TimePoint::epoch() + Duration::from_millis(2500));
  sampler.sample_until(TimePoint::epoch() + Duration::from_millis(2500));  // no re-sampling
  const auto series = sampler.take();
  ASSERT_EQ(series.size(), 1u);
  // Grid points 0, 1, 2 s.
  ASSERT_EQ(series[0].points.size(), 3u);
  EXPECT_EQ(series[0].points[2].t_ns, 2'000'000'000);
  EXPECT_EQ(calls, 3);
}

TEST(Sampler, RemovedProbeKeepsItsPoints) {
  Sampler sampler{Duration::seconds(1)};
  const std::uint64_t id = sampler.add_probe("gone", [](TimePoint) { return 1.0; });
  sampler.sample_until(TimePoint::epoch() + Duration::seconds(1));
  sampler.remove_probe(id);
  sampler.sample_until(TimePoint::epoch() + Duration::seconds(3));
  const auto series = sampler.take();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points.size(), 2u);  // only t=0s and t=1s
}

TEST(Sampler, DecimatesByStrideDoublingAtTheCap) {
  Sampler sampler{Duration::seconds(1), /*max_points=*/4};
  sampler.add_probe("x", [](TimePoint t) { return t.to_seconds(); });
  sampler.sample_until(TimePoint::epoch() + Duration::seconds(10));
  EXPECT_EQ(sampler.stride(), 4u);  // doubled at 4 points, again at 4
  const auto series = sampler.take();
  ASSERT_EQ(series.size(), 1u);
  // Grid 0..10 s at 1 s would be 11 points; the cap leaves a uniform
  // 4 s grid: t = 0, 4, 8.
  ASSERT_EQ(series[0].points.size(), 3u);
  EXPECT_EQ(series[0].points[0].t_ns, 0);
  EXPECT_EQ(series[0].points[1].t_ns, 4'000'000'000);
  EXPECT_EQ(series[0].points[2].t_ns, 8'000'000'000);
}

TEST(Sampler, DecimationIsIndependentOfSamplingChunks) {
  // The lazy pull cadence (one sample_until per dispatched event) must not
  // change what gets recorded — only sim time may.
  const auto run = [](const std::vector<std::int64_t>& stops_ms) {
    Sampler sampler{Duration::from_millis(250), /*max_points=*/8};
    sampler.add_probe("x", [](TimePoint t) { return t.to_seconds(); });
    for (const auto ms : stops_ms) {
      sampler.sample_until(TimePoint::epoch() + Duration::from_millis(static_cast<double>(ms)));
    }
    return sampler.take();
  };
  const auto one = run({9000});
  const auto many = run({40, 700, 1300, 2900, 3000, 8999, 9000});
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_EQ(one[0].points, many[0].points);
}

TEST(TraceSink, RingKeepsMostRecentEventsAndCountsDrops) {
  TraceSink sink{true, /*max_events=*/3};
  for (int i = 1; i <= 5; ++i) {
    std::string name = "e";
    name += static_cast<char>('0' + i);
    sink.instant("cat", name, TimePoint::epoch() + Duration::seconds(i));
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.take();
  ASSERT_EQ(events.size(), 3u);
  // Chronological after take(), oldest events overwritten.
  EXPECT_EQ(events[0].name, "e3");
  EXPECT_EQ(events[1].name, "e4");
  EXPECT_EQ(events[2].name, "e5");
}

TEST(Sampler, StrideDoublesExactlyAtThePowerOfTwoCap) {
  // One grid point short of the cap: nothing decimated.
  Sampler under{Duration::seconds(1), /*max_points=*/8};
  under.add_probe("x", [](TimePoint t) { return t.to_seconds(); });
  under.sample_until(TimePoint::epoch() + Duration::seconds(6));  // t = 0..6
  EXPECT_EQ(under.stride(), 1u);
  EXPECT_EQ(under.take()[0].points.size(), 7u);
  // Landing exactly on the cap (8 = 2^3 points): exactly one halving, so the
  // retained grid is every other point of the original, ending at t=6.
  Sampler at{Duration::seconds(1), /*max_points=*/8};
  at.add_probe("x", [](TimePoint t) { return t.to_seconds(); });
  at.sample_until(TimePoint::epoch() + Duration::seconds(7));  // t = 0..7
  EXPECT_EQ(at.stride(), 2u);
  const auto series = at.take();
  ASSERT_EQ(series[0].points.size(), 4u);
  EXPECT_EQ(series[0].points[0].t_ns, 0);
  EXPECT_EQ(series[0].points[3].t_ns, 6'000'000'000);
}

TEST(TraceSink, RecentReturnsChronologicalTailAcrossWraparound) {
  TraceSink sink{true, /*max_events=*/4};
  for (int i = 1; i <= 6; ++i) {
    std::string name = "e";
    name += static_cast<char>('0' + i);
    sink.instant("cat", name, TimePoint::epoch() + Duration::seconds(i));
  }
  const auto tail = sink.recent(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].name, "e5");
  EXPECT_EQ(tail[1].name, "e6");
  const auto all = sink.recent(100);  // clamped to what the ring still holds
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "e3");
  EXPECT_EQ(all[3].name, "e6");
  EXPECT_EQ(sink.size(), 4u);  // recent() is non-destructive
}

// --------------------------------------------------------------- anomaly

AnomalyDetector::Config tight_anomaly_config() {
  AnomalyDetector::Config cfg;
  cfg.window = 32;
  cfg.min_samples = 4;
  cfg.spike_factor = 4.0;
  cfg.drop_factor = 4.0;
  cfg.min_delta = 1.0;
  cfg.cooldown = Duration::seconds(10);
  return cfg;
}

TEST(AnomalyDetector, SpikeFiresOnlyAfterMinSamples) {
  AnomalyDetector det{tight_anomaly_config()};
  std::vector<AnomalyDetector::Anomaly> fired;
  det.set_callback([&fired](const AnomalyDetector::Anomaly& a) { fired.push_back(a); });
  det.observe("rtt", 0, 500.0);  // no history yet: never an anomaly
  for (int i = 1; i <= 4; ++i) {
    det.observe("rtt", i * 1'000'000'000LL, 50.0);
  }
  EXPECT_EQ(det.anomalies(), 0u);
  det.observe("rtt", 5'000'000'000LL, 500.0);  // 500 > 4 x median(50)
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_STREQ(fired[0].kind, "spike");
  EXPECT_DOUBLE_EQ(fired[0].value, 500.0);
  EXPECT_DOUBLE_EQ(fired[0].median, 50.0);
  EXPECT_EQ(fired[0].t_ns, 5'000'000'000LL);
}

TEST(AnomalyDetector, DropFiresBelowMedianOverFactor) {
  AnomalyDetector det{tight_anomaly_config()};
  std::vector<AnomalyDetector::Anomaly> fired;
  det.set_callback([&fired](const AnomalyDetector::Anomaly& a) { fired.push_back(a); });
  for (int i = 0; i < 4; ++i) det.observe("tput", i * 1'000'000'000LL, 400.0);
  det.observe("tput", 4'000'000'000LL, 40.0);  // 40 < 400 / 4
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_STREQ(fired[0].kind, "drop");
}

TEST(AnomalyDetector, CooldownSuppressesRepeatFiresPerStream) {
  AnomalyDetector det{tight_anomaly_config()};
  for (int i = 0; i < 4; ++i) det.observe("rtt", i * 1'000'000'000LL, 50.0);
  det.observe("rtt", 4'000'000'000LL, 500.0);   // fires
  det.observe("rtt", 5'000'000'000LL, 500.0);   // within 10 s cooldown
  det.observe("rtt", 9'000'000'000LL, 500.0);   // still within
  EXPECT_EQ(det.anomalies(), 1u);
  det.observe("rtt", 20'000'000'000LL, 500.0);  // cooldown expired, median still 50
  EXPECT_EQ(det.anomalies(), 2u);
}

TEST(AnomalyDetector, MinDeltaGatesSmallRelativeSpikes) {
  AnomalyDetector det{tight_anomaly_config()};
  for (int i = 0; i < 4; ++i) det.observe("q", i * 1'000'000'000LL, 0.1);
  det.observe("q", 4'000'000'000LL, 0.5);  // 5x the median, but |delta| < 1.0
  EXPECT_EQ(det.anomalies(), 0u);
}

// -------------------------------------------------- flight recorder dumps

TEST(Recorder, AnomalyCapturesFlightDumpWithDeltasAndTraceTail) {
  Options opts;
  opts.provenance = true;  // trace ring recording is implied, export is not
  Recorder rec{opts};
  Counter handovers = rec.registry().counter("leo.handovers");
  std::int64_t comp[kTagComponents] = {};
  comp[kPropagation] = 40'000'000;
  comp[kQueue] = 10'000'000;
  // Default detector config: min_samples=16, spike_factor=4, cooldown=60s.
  for (int i = 0; i < 16; ++i) {
    rec.record_breakdown(i * 1'000'000'000LL, /*flow=*/1, comp, 50'000'000);
  }
  handovers.add(3);
  rec.trace().instant("leo", "handover", TimePoint::epoch() + Duration::seconds(16));
  std::int64_t spike[kTagComponents] = {};
  spike[kPropagation] = 40'000'000;
  spike[kHandoverStall] = 360'000'000;
  rec.record_breakdown(16'000'000'000LL, /*flow=*/1, spike, 400'000'000);
  const Snapshot snap = rec.take_snapshot();
  ASSERT_EQ(snap.flights.size(), 1u);
  const FlightDump& dump = snap.flights[0];
  EXPECT_EQ(dump.stream, "provenance.measured_ms");
  EXPECT_EQ(dump.kind, "spike");
  EXPECT_DOUBLE_EQ(dump.value, 400.0);
  ASSERT_EQ(dump.counter_deltas.size(), 1u);
  EXPECT_EQ(dump.counter_deltas[0].first, "leo.handovers");
  EXPECT_EQ(dump.counter_deltas[0].second, 3u);
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].name, "handover");
  EXPECT_EQ(snap.counters.at("obs.anomaly.count"), 1u);
  // The trace ring existed only to feed flight dumps; without --trace it
  // must not leak into the trace export.
  EXPECT_TRUE(snap.events.empty());
  const std::string doc = flight_json(snap);
  EXPECT_NE(doc.find("\"stream\": \"provenance.measured_ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"leo.handovers\": 3"), std::string::npos);
}

TEST(Recorder, EmptySnapshotExportsAreValidDocuments) {
  const Snapshot empty;
  EXPECT_NE(breakdown_json(empty).find("\"components\": {}"), std::string::npos);
  EXPECT_NE(breakdown_json(empty).find("\"flows\": {}"), std::string::npos);
  EXPECT_NE(flight_json(empty).find("\"flights\": []"), std::string::npos);
  EXPECT_NE(metrics_json(empty).find("\"counters\": {}"), std::string::npos);
}

TEST(Simulator, LazySamplingSeesPostEventState) {
  sim::Simulator sim;
  Options opts;
  opts.sample_interval = Duration::seconds(1);
  sim.enable_obs(opts);
  double value = 0.0;
  sim.obs()->sampler()->add_probe("v", [&value](TimePoint) { return value; });
  // The event at exactly t=1s runs *before* the t=1s grid point is sampled.
  sim.schedule_at(TimePoint::epoch() + Duration::seconds(1), [&value] { value = 7.0; });
  sim.schedule_at(TimePoint::epoch() + Duration::from_millis(2500), [] {});
  sim.run();
  const Snapshot snap = sim.obs()->take_snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  ASSERT_GE(snap.series[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.series[0].points[0].value, 0.0);  // t=0
  EXPECT_DOUBLE_EQ(snap.series[0].points[1].value, 7.0);  // t=1s, after the event
  EXPECT_DOUBLE_EQ(snap.series[0].points[2].value, 7.0);  // t=2s
}

TEST(Simulator, RunUntilSamplesTrailingGridPoints) {
  sim::Simulator sim;
  Options opts;
  opts.sample_interval = Duration::seconds(1);
  sim.enable_obs(opts);
  sim.obs()->sampler()->add_probe("v", [](TimePoint) { return 1.0; });
  sim.run_until(TimePoint::epoch() + Duration::from_millis(3500));
  const Snapshot snap = sim.obs()->take_snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].points.size(), 4u);  // 0, 1, 2, 3 s
}

// ------------------------------------------------------- snapshot merging

Snapshot one_cell(std::uint64_t count, double gauge, std::int64_t event_ns) {
  Recorder rec{[] {
    Options o;
    o.metrics = true;
    o.trace = true;
    o.sample_interval = Duration::seconds(1);
    return o;
  }()};
  rec.registry().counter("c").add(count);
  rec.registry().gauge("g").set(gauge);
  const std::array<double, 2> edges{10.0, 100.0};
  rec.registry().histogram("h", edges).observe(gauge);
  rec.trace().instant("cat", "ev", TimePoint::from_ns(event_ns));
  rec.sampler()->add_probe("s", [gauge](TimePoint) { return gauge; });
  rec.sampler()->sample_until(TimePoint::epoch() + Duration::seconds(1));
  return rec.take_snapshot();
}

TEST(Snapshot, MergeIsCellOrderDeterministic) {
  Snapshot a = one_cell(3, 5.0, 100);
  Snapshot b = one_cell(4, 50.0, 200);
  Snapshot merged;
  merge(merged, a);
  merge(merged, b);
  EXPECT_EQ(merged.cells, 2u);
  EXPECT_EQ(merged.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 50.0);  // later cell wins
  EXPECT_EQ(merged.histograms.at("h").total, 2u);
  EXPECT_EQ(merged.histograms.at("h").counts[0], 1u);  // 5 < 10
  EXPECT_EQ(merged.histograms.at("h").counts[1], 1u);  // 10 <= 50 < 100
  ASSERT_EQ(merged.events.size(), 2u);
  EXPECT_EQ(merged.events[0].cell, 0u);
  EXPECT_EQ(merged.events[1].cell, 1u);
  ASSERT_EQ(merged.series.size(), 2u);
  EXPECT_EQ(merged.series[1].cell, 1u);
}

TEST(Snapshot, MetricsJsonIsByteIdenticalForSameData) {
  Snapshot m1;
  merge(m1, one_cell(3, 5.0, 100));
  merge(m1, one_cell(4, 50.0, 200));
  Snapshot m2;
  merge(m2, one_cell(3, 5.0, 100));
  merge(m2, one_cell(4, 50.0, 200));
  EXPECT_EQ(metrics_json(m1), metrics_json(m2));
  EXPECT_NE(metrics_json(m1).find("\"cells\": 2"), std::string::npos);
}

TEST(Snapshot, MergeIntoEmptyIsTheIdentity) {
  // Provenance on but no flow ever tagged: the breakdown has its bucket
  // edges and no groups. Folding it into a fresh Snapshot must keep them.
  Options opts;
  opts.metrics = true;
  opts.trace = true;
  opts.provenance = true;
  Recorder rec{opts};
  rec.registry().counter("c").add(2);
  rec.registry().gauge("g").set(1.5);
  rec.trace().instant("cat", "ev", TimePoint::from_ns(100));
  const Snapshot cell = rec.take_snapshot();
  ASSERT_TRUE(cell.breakdown_flows.groups().empty());
  ASSERT_FALSE(cell.breakdown_components.edges().empty());
  Snapshot folded;
  merge(folded, cell);
  EXPECT_EQ(metrics_json(folded), metrics_json(cell));
  EXPECT_EQ(trace_json(folded.events), trace_json(cell.events));
  EXPECT_EQ(breakdown_json(folded), breakdown_json(cell));
  EXPECT_EQ(flight_json(folded), flight_json(cell));
}

// --------------------------------------------------------------- profile

TEST(WallProfile, RecordsLog2Buckets) {
  WallProfile profile;
  profile.record_callback_ns(100);
  profile.record_callback_ns(100);
  profile.record_callback_ns(1'000'000);
  EXPECT_EQ(profile.events(), 3u);
  EXPECT_GE(profile.quantile_ns(0.5), 100u);
  EXPECT_GE(profile.quantile_ns(1.0), 1'000'000u);
  EXPECT_FALSE(profile.report().empty());
}

// ------------------------------------------------------ simulator plumbing

TEST(Simulator, ObsOffByDefault) {
  sim::Simulator sim;
  EXPECT_EQ(sim.obs(), nullptr);
  EXPECT_EQ(sim.wall_profile(), nullptr);
}

TEST(Simulator, RunLeavesTheClockOnTheLastEvent) {
  for (const bool profiled : {false, true}) {
    sim::Simulator sim;
    Options opts;
    opts.profile = profiled;
    sim.enable_obs(opts);
    sim.schedule_in(Duration::seconds(3), [] {});
    sim.run();
    EXPECT_EQ(sim.now(), TimePoint::epoch() + Duration::seconds(3)) << profiled;
    EXPECT_EQ(sim.events_processed(), 1u);
  }
}

TEST(Simulator, ProfileCountsCallbacks) {
  sim::Simulator sim;
  Options opts;
  opts.profile = true;
  sim.enable_obs(opts);
  for (int i = 0; i < 10; ++i) sim.schedule_in(Duration::micros(i), [] {});
  sim.run();
  ASSERT_NE(sim.wall_profile(), nullptr);
  EXPECT_EQ(sim.wall_profile()->events(), 10u);
}

}  // namespace
}  // namespace slp::obs
