#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stats/ecdf.hpp"
#include "stats/groupby.hpp"
#include "stats/histogram.hpp"
#include "stats/moods_test.hpp"
#include "stats/quantiles.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"
#include "util/rng.hpp"

namespace slp::stats {
namespace {

using slp::Duration;
using slp::TimePoint;

// ------------------------------------------------------------ Summary

// Bit equality, except that any two NaNs match: IEEE 754 leaves the sign
// and payload of an arithmetic NaN unspecified, and a compiler may commute
// the operands of + and *, so the same add() inlined in two places can
// produce NaNs with different bits. Every other value, 0.0 vs -0.0
// included, must match bit for bit.
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const StreamingSummary& a, const StreamingSummary& b,
                      const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(same_bits(a.mean(), b.mean())) << what;
  EXPECT_TRUE(same_bits(a.variance(), b.variance())) << what;
  EXPECT_TRUE(same_bits(a.sample_variance(), b.sample_variance())) << what;
  EXPECT_TRUE(same_bits(a.sum(), b.sum())) << what;
  EXPECT_TRUE(same_bits(a.min(), b.min())) << what;
  EXPECT_TRUE(same_bits(a.max(), b.max())) << what;
}

TEST(StreamingSummary, BasicMoments) {
  StreamingSummary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingSummary, MergeEqualsSequential) {
  StreamingSummary a;
  StreamingSummary b;
  StreamingSummary all;
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunBatch, FoldIsBitIdenticalToRepeatedAdds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double above_one = std::nextafter(1.0, 2.0);
  const std::vector<std::vector<double>> histories{
      {},                          // empty: the first add sets the mean
      {3.25, 3.25, 3.25},          // constant: x == mean_ settles at once
      {1.0, 7.5, -2.0, 0.1, 0.1},  // mixed: x != mean_ and m2_ > 0
      {1.0, 3.0},                  // mixed, with x == mean_ (2.0) below
      {above_one},                 // x = 1.0 settles after one add (ties to even)
      {0.0},
      {-0.0},
      {sub, 3.0 * sub},
      {inf},
      {-inf, 1.0},
      {nan},
  };
  std::vector<double> xs{3.25, 0.1, 1.0,  2.0, 0.0,     -0.0,  inf,
                         -inf, nan, sub, -sub, 2 * sub, 1e300, -7.0};
  for (const std::vector<double>& h : histories) {
    StreamingSummary prefix;
    for (double v : h) prefix.add(v);
    xs.push_back(prefix.mean());  // x == mean_ after whatever history
  }
  {
    // The partway settle really happens: one Welford step, then x == mean_.
    StreamingSummary s;
    s.add(above_one);
    ASSERT_NE(s.mean(), 1.0);
    s.add(1.0);
    ASSERT_EQ(s.mean(), 1.0);
  }
  const std::uint64_t ks[] = {0, 1, 2, 3, 5, 1000, 70000};
  // Every (history, x, k) both as a one-run batch and inside one shared
  // batch, where runs of mixed lengths refill the lanes mid-batch.
  struct Case {
    std::string what;
    double x;
    std::uint64_t k;
    StreamingSummary alone;
    StreamingSummary shared;
    StreamingSummary looped;
  };
  std::vector<Case> cases;
  for (const std::vector<double>& h : histories) {
    for (double x : xs) {
      for (const std::uint64_t k : ks) {
        Case c{"history of " + std::to_string(h.size()) + ", x=" + std::to_string(x) +
                   ", k=" + std::to_string(k),
               x, k, {}, {}, {}};
        for (double v : h) {
          c.alone.add(v);
          c.shared.add(v);
          c.looped.add(v);
        }
        for (std::uint64_t i = 0; i < k; ++i) c.looped.add(x);
        cases.push_back(std::move(c));
      }
    }
  }
  RunBatch shared;
  for (Case& c : cases) {
    RunBatch alone;
    alone.stage(c.alone, c.x, c.k);
    alone.fold();
    shared.stage(c.shared, c.x, c.k);
  }
  shared.fold();
  for (const Case& c : cases) {
    expect_same_bits(c.alone, c.looped, "alone, " + c.what);
    expect_same_bits(c.shared, c.looped, "shared, " + c.what);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(StreamingSummary, MergeWithEmpty) {
  StreamingSummary a;
  a.add(1.0);
  StreamingSummary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// ------------------------------------------------------------ Quantiles

TEST(Quantiles, SortedQuantileInterpolates) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0 / 3.0), 20.0);
}

TEST(Samples, MedianOfOddAndEven) {
  Samples odd{1, 3, 2};
  EXPECT_DOUBLE_EQ(odd.median(), 2.0);
  Samples even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(even.median(), 2.5);
}

TEST(Samples, QuantileAfterIncrementalAdds) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
  // Adding after a sort must invalidate the cache.
  s.add(1000.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Samples, ConstructorFeedsStreamingSummary) {
  // Regression: the vector/initializer-list constructors used to leave the
  // streaming summary empty, so mean()/min()/max() silently returned 0.
  const Samples s{10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
  const Samples from_vector{std::vector<double>{4.0, 8.0}};
  EXPECT_DOUBLE_EQ(from_vector.mean(), 6.0);
  EXPECT_EQ(from_vector.summary().count(), 2u);
}

TEST(Samples, ClearResetsEverything) {
  Samples s{1, 2, 3};
  s.clear();
  EXPECT_TRUE(s.empty());
  s.add(5);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(Samples, MergeEqualsAddAllOfConcatenation) {
  // Regression guard: a fold that copied values without feeding the
  // streaming summary would leave count/mean/min/max at the `into` side's.
  Rng rng{23};
  std::vector<double> left(37);
  std::vector<double> right(53);
  for (double& x : left) x = rng.normal(40.0, 8.0);
  for (double& x : right) x = rng.normal(55.0, 20.0);
  std::vector<double> both = left;
  both.insert(both.end(), right.begin(), right.end());

  Samples merged;
  merged.add_all(left);
  EXPECT_DOUBLE_EQ(merged.median(), Samples{left}.median());  // sort cache now warm
  merged.merge(Samples{right});
  Samples expected;
  expected.add_all(both);

  EXPECT_EQ(merged.values(), expected.values());
  EXPECT_EQ(merged.summary().count(), expected.summary().count());
  EXPECT_EQ(merged.size(), both.size());
  EXPECT_EQ(merged.mean(), expected.mean());  // bit-identical, not just close
  EXPECT_EQ(merged.summary().variance(), expected.summary().variance());
  EXPECT_EQ(merged.min(), expected.min());
  EXPECT_EQ(merged.max(), expected.max());
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_EQ(merged.quantile(q), expected.quantile(q)) << "q=" << q;
  }

  // Merging an empty set is a no-op; merging into an empty set copies.
  merged.merge(Samples{});
  EXPECT_EQ(merged.size(), both.size());
  Samples empty;
  empty.merge(expected);
  EXPECT_EQ(empty.values(), expected.values());
  EXPECT_EQ(empty.mean(), expected.mean());
}

TEST(Boxplot, MatchesPaperConventions) {
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  const BoxplotSummary box = boxplot(s);
  EXPECT_EQ(box.count, 1000u);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.max, 1000.0);
  EXPECT_NEAR(box.median, 500.5, 1e-9);
  EXPECT_NEAR(box.p25, 250.75, 1e-6);
  EXPECT_NEAR(box.p75, 750.25, 1e-6);
  EXPECT_NEAR(box.p5, 50.95, 1e-6);
  EXPECT_NEAR(box.p95, 950.05, 1e-6);
}

TEST(Boxplot, EmptyIsAllZero) {
  const BoxplotSummary box = boxplot(Samples{});
  EXPECT_EQ(box.count, 0u);
  EXPECT_DOUBLE_EQ(box.median, 0.0);
}

// ------------------------------------------------------------ ECDF

TEST(Ecdf, EvalIsRightContinuousStep) {
  const std::vector<double> v{1.0, 2.0, 2.0, 4.0};
  const Ecdf e{std::span{v}};
  EXPECT_DOUBLE_EQ(e.eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.eval(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.eval(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.eval(3.0), 0.75);
  EXPECT_DOUBLE_EQ(e.eval(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(100.0), 1.0);
}

TEST(Ecdf, InverseIsSmallestValueReachingQ) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Ecdf e{std::span{v}};
  EXPECT_DOUBLE_EQ(e.inverse(0.25), 1.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.26), 2.0);
  EXPECT_DOUBLE_EQ(e.inverse(1.0), 4.0);
  EXPECT_DOUBLE_EQ(e.inverse(0.0), 1.0);
}

TEST(Ecdf, InverseRoundTripsEval) {
  Rng rng{12};
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.lognormal(2.0, 0.7));
  const Ecdf e{std::span{v}};
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_GE(e.eval(e.inverse(q)), q - 1e-12);
  }
}

TEST(Ecdf, CurveSpansRange) {
  const std::vector<double> v{0.0, 10.0};
  const Ecdf e{std::span{v}};
  const auto curve = e.curve(11);
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 10.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Ecdf, EmptyIsSafe) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.eval(1.0), 0.0);
  EXPECT_TRUE(e.curve(5).empty());
}

// ------------------------------------------------------------ Histogram

TEST(IntHistogram, CdfOverSparseSupport) {
  IntHistogram h;
  h.add(1, 75);
  h.add(3, 20);
  h.add(120, 5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_DOUBLE_EQ(h.cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(1), 0.75);
  EXPECT_DOUBLE_EQ(h.cdf(2), 0.75);
  EXPECT_DOUBLE_EQ(h.cdf(3), 0.95);
  EXPECT_DOUBLE_EQ(h.cdf(119), 0.95);
  EXPECT_DOUBLE_EQ(h.cdf(120), 1.0);
  EXPECT_EQ(h.max_value(), 120u);
}

// ------------------------------------------------------------ TimeBinner

TEST(TimeBinner, SixHourBinsLikeFigure2) {
  TimeBinner binner{Duration::hours(6)};
  // Two samples in bin 0, one in bin 2 (12h..18h).
  binner.add(TimePoint::epoch() + Duration::hours(1), 50.0);
  binner.add(TimePoint::epoch() + Duration::hours(5), 60.0);
  binner.add(TimePoint::epoch() + Duration::hours(13), 45.0);
  const auto rows = binner.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].median, 55.0);
  EXPECT_EQ(rows[1].start, TimePoint::epoch() + Duration::hours(12));
  EXPECT_DOUBLE_EQ(rows[1].min, 45.0);
}

TEST(TimeBinner, PercentileRowsOrdered) {
  TimeBinner binner{Duration::seconds(10)};
  for (int i = 0; i < 100; ++i) {
    binner.add(TimePoint::epoch() + Duration::seconds(3), static_cast<double>(i));
  }
  const auto rows = binner.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_LE(rows[0].min, rows[0].p25);
  EXPECT_LE(rows[0].p25, rows[0].median);
  EXPECT_LE(rows[0].median, rows[0].p75);
  EXPECT_LE(rows[0].p75, rows[0].p95);
}

// ------------------------------------------------------------ Mood's test

TEST(GammaQ, KnownChiSquareValues) {
  // Chi-square survival: P[X > x] for k dof. Reference values from tables.
  EXPECT_NEAR(chi2_sf(3.841, 1), 0.05, 5e-4);
  EXPECT_NEAR(chi2_sf(5.991, 2), 0.05, 5e-4);
  EXPECT_NEAR(chi2_sf(0.0, 3), 1.0, 1e-12);
  EXPECT_NEAR(chi2_sf(31.41, 20), 0.05, 5e-4);
}

TEST(MoodsTest, SameMedianGivesHighPValue) {
  Rng rng{13};
  std::vector<std::vector<double>> groups(4);
  for (auto& g : groups) {
    for (int i = 0; i < 500; ++i) g.push_back(rng.normal(50.0, 5.0));
  }
  const MoodsResult r = moods_median_test(groups);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.dof, 3u);
  EXPECT_GT(r.p_value, 0.01);
  EXPECT_NEAR(r.grand_median, 50.0, 0.5);
}

TEST(MoodsTest, ShiftedMedianGivesLowPValue) {
  Rng rng{14};
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 500; ++i) groups[0].push_back(rng.normal(50.0, 5.0));
  for (int i = 0; i < 500; ++i) groups[1].push_back(rng.normal(55.0, 5.0));
  const MoodsResult r = moods_median_test(groups);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(MoodsTest, DegenerateInputsRejected) {
  EXPECT_FALSE(moods_median_test(std::vector<std::vector<double>>{}).valid);
  std::vector<std::vector<double>> one_group{{1.0, 2.0}};
  EXPECT_FALSE(moods_median_test(one_group).valid);
  std::vector<std::vector<double>> with_empty{{1.0}, {}};
  EXPECT_FALSE(moods_median_test(with_empty).valid);
  // All identical values: nobody above the grand median -> degenerate.
  std::vector<std::vector<double>> constant{{5.0, 5.0}, {5.0, 5.0}};
  EXPECT_FALSE(moods_median_test(constant).valid);
}

// ------------------------------------------------------------ TextTable

TEST(TextTable, AlignsColumns) {
  TextTable t{{"name", "value"}};
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::pct(0.0156), "1.56%");
}

// ------------------------------------------------------- KeyedSamples

TEST(KeyedSamples, SlotAddsAreByteEqualToKeyedAdds) {
  const std::vector<double> edges{1.0, 2.0, 4.0, 8.0};
  KeyedSamples keyed{edges};
  KeyedSamples slotted{edges};
  KeyedSamples::Slot a = slotted.slot(7);
  KeyedSamples::Slot b = slotted.slot(3);
  Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    keyed.add(7, x);
    a.add(x);
    keyed.add(3, y);
    b.add(y);
    // A keyed add between slot adds lands in the same group.
    if (i % 50 == 0) {
      keyed.add(7, 0.5);
      slotted.add(7, 0.5);
    }
  }
  ASSERT_EQ(keyed.size(), slotted.size());
  auto it = slotted.groups().begin();
  for (const auto& [key, g] : keyed.groups()) {
    ASSERT_EQ(key, it->first);
    const KeyedSamples::Group& h = it->second;
    EXPECT_EQ(g.summary.count(), h.summary.count());
    EXPECT_EQ(g.summary.sum(), h.summary.sum());
    EXPECT_EQ(g.summary.mean(), h.summary.mean());
    EXPECT_EQ(g.summary.variance(), h.summary.variance());
    EXPECT_EQ(g.summary.min(), h.summary.min());
    EXPECT_EQ(g.summary.max(), h.summary.max());
    EXPECT_EQ(g.counts, h.counts);
    ++it;
  }
}

TEST(KeyedSamples, SlotCreatesNoGroupUntilItsFirstAdd) {
  KeyedSamples ks{{1.0, 2.0}};
  KeyedSamples::Slot idle = ks.slot(11);
  KeyedSamples::Slot used = ks.slot(12);
  EXPECT_TRUE(ks.empty());
  EXPECT_EQ(ks.quantile(11, 0.5), 0.0);
  used.add(1.5);
  EXPECT_EQ(ks.size(), 1u);
  EXPECT_EQ(ks.groups().count(11), 0u);
  EXPECT_EQ(ks.groups().at(12).summary.count(), 1u);
  (void)idle;
}

TEST(KeyedSamples, SlotStagedRunsEqualRepeatedAdds) {
  const std::vector<double> edges{1.0, 2.0, 4.0, 8.0};
  KeyedSamples staged{edges};
  KeyedSamples looped{edges};
  KeyedSamples::Slot slot = staged.slot(9);
  RunBatch batch;
  slot.stage(batch, 5.0, 0);
  EXPECT_TRUE(staged.empty()) << "k == 0 creates no group";
  // Runs across every bucket (an edge value included), with a value that
  // repeats after a different one so the mean is not settled on it. One
  // run per fold: a slot is staged at most once per batch.
  const std::vector<std::pair<double, std::uint64_t>> runs{
      {0.5, 3}, {2.0, 1}, {5.0, 400}, {5.0, 7}, {9.5, 2}, {0.5, 0}, {3.0, 50}, {5.0, 9}};
  for (const auto& [x, k] : runs) {
    slot.stage(batch, x, k);
    if (k > 0) {
      // The bucket count moves at stage time, the summary at the fold.
      const KeyedSamples::Group& g = staged.groups().at(9);
      std::uint64_t bucketed = 0;
      for (const std::uint64_t n : g.counts) bucketed += n;
      EXPECT_EQ(bucketed, g.summary.count() + k);
    }
    batch.fold();
    for (std::uint64_t i = 0; i < k; ++i) looped.add(9, x);
    ASSERT_EQ(staged.groups().at(9).counts, looped.groups().at(9).counts);
  }
  ASSERT_EQ(staged.size(), 1u);
  ASSERT_EQ(looped.size(), 1u);
  const KeyedSamples::Group& a = staged.groups().at(9);
  const KeyedSamples::Group& b = looped.groups().at(9);
  EXPECT_EQ(a.counts, b.counts);
  expect_same_bits(a.summary, b.summary, "slot runs");
}

}  // namespace
}  // namespace slp::stats
