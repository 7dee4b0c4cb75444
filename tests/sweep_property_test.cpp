// sweep_property_test.cpp — algebraic properties of the sample folds the
// parallel sweep relies on (stats::Samples::merge, stats::TimeBinner::merge,
// the per-Result merges built from them): any partition of one sample
// multiset, merged in any shard order, yields the same distribution
// (quantiles, ECDF, moments); and distinct sweep cells really are distinct
// experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "measure/campaign.hpp"
#include "runner/pool.hpp"
#include "runner/sweep.hpp"
#include "stats/ecdf.hpp"
#include "stats/timeseries.hpp"
#include "util/rng.hpp"

namespace slp::runner {
namespace {

// Splits `values` into `shards` non-empty-ish chunks at random boundaries.
std::vector<stats::Samples> random_partition(Rng& rng, const std::vector<double>& values,
                                             std::size_t shards) {
  std::vector<stats::Samples> out(shards);
  for (const double v : values) {
    out[rng.index(shards)].add(v);
  }
  return out;
}

// Folds shards in span order into one sample set.
stats::Samples merge_samples(const std::vector<stats::Samples>& shards) {
  stats::Samples out;
  for (const stats::Samples& shard : shards) out.merge(shard);
  return out;
}

std::vector<double> quantile_grid(const stats::Samples& s) {
  std::vector<double> out;
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    out.push_back(s.quantile(q));
  }
  return out;
}

TEST(MergeProperty, AnyPartitionYieldsIdenticalQuantiles) {
  Rng rng{2022};
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.lognormal(3.9, 0.25));
  stats::Samples whole{values};
  const auto expected = quantile_grid(whole);

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t shards = 1 + rng.index(8);
    const auto partition = random_partition(rng, values, shards);
    const stats::Samples merged = merge_samples(partition);
    ASSERT_EQ(merged.size(), values.size());
    EXPECT_EQ(quantile_grid(merged), expected) << "trial " << trial;
    // Means come from a streaming summary fed in shard order, so allow for
    // floating-point non-associativity of the summation.
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * std::abs(whole.mean()));
  }
}

TEST(MergeProperty, ShardOrderIsIrrelevant) {
  Rng rng{7};
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.exponential(40.0));
  auto partition = random_partition(rng, values, 5);

  const stats::Samples forward = merge_samples(partition);
  std::reverse(partition.begin(), partition.end());
  const stats::Samples reversed = merge_samples(partition);
  std::shuffle(partition.begin(), partition.end(), rng);
  const stats::Samples shuffled = merge_samples(partition);

  EXPECT_EQ(quantile_grid(forward), quantile_grid(reversed));
  EXPECT_EQ(quantile_grid(forward), quantile_grid(shuffled));
}

TEST(MergeProperty, PairwiseMergeIsAssociative) {
  Rng rng{99};
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(50.0, 8.0));
  const auto parts = random_partition(rng, values, 3);

  // (a + b) + c
  stats::Samples left = parts[0];
  left.merge(parts[1]);
  left.merge(parts[2]);
  // a + (b + c)
  stats::Samples bc = parts[1];
  bc.merge(parts[2]);
  stats::Samples right = parts[0];
  right.merge(bc);

  ASSERT_EQ(left.size(), right.size());
  // Left-fold in shard order is exactly concatenation, so even the raw
  // sample order agrees — a stronger property than quantile equality.
  EXPECT_EQ(left.values(), right.values());
}

TEST(MergeProperty, EcdfOfPartitionsMatchesWholeSet) {
  Rng rng{3};
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.pareto(10.0, 1.8));
  const stats::Ecdf whole{std::span<const double>{values}};
  const auto partition = random_partition(rng, values, 6);
  const stats::Ecdf merged{merge_samples(partition)};
  ASSERT_EQ(merged.size(), whole.size());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.inverse(q), whole.inverse(q));
  }
  for (const double x : {10.0, 15.0, 40.0, 200.0}) {
    EXPECT_DOUBLE_EQ(merged.eval(x), whole.eval(x));
  }
}

TEST(MergeProperty, TimeBinnerMergePoolsPerBinSamples) {
  Rng rng{11};
  stats::TimeBinner whole{Duration::hours(6)};
  stats::TimeBinner left{Duration::hours(6)};
  stats::TimeBinner right{Duration::hours(6)};
  for (int i = 0; i < 250; ++i) {
    const TimePoint at = TimePoint::epoch() + Duration::minutes(rng.uniform_int(0, 14 * 24 * 60));
    const double v = rng.uniform(40.0, 60.0);
    whole.add(at, v);
    (rng.chance(0.5) ? left : right).add(at, v);
  }
  left.merge(right);
  ASSERT_EQ(left.bins(), whole.bins());
  for (std::size_t b = 0; b < whole.bins(); ++b) {
    ASSERT_EQ(left.bin(b).size(), whole.bin(b).size()) << "bin " << b;
    if (left.bin(b).empty()) continue;
    EXPECT_DOUBLE_EQ(left.bin(b).median(), whole.bin(b).median()) << "bin " << b;
  }
}

// ================================================= distinct seeds distinct

TEST(SweepProperty, DistinctSeedCellsProduceDistinctCampaigns) {
  measure::SpeedtestCampaign::Config config;
  config.seed = 5150;
  config.tests = 2;
  config.test_duration = Duration::seconds(5);
  Pool pool{2};
  const auto cells = run_cells<measure::SpeedtestCampaign>(pool, 3, config);
  ASSERT_EQ(cells.size(), 3u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_FALSE(cells[i].mbps.empty()) << "cell " << i;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      EXPECT_NE(cells[i].mbps.values(), cells[j].mbps.values())
          << "cells " << i << " and " << j << " are identical";
    }
  }
}

TEST(SweepProperty, MergedSweepIsReproducibleAcrossRuns) {
  measure::SpeedtestCampaign::Config config;
  config.seed = 31337;
  config.tests = 1;
  config.test_duration = Duration::seconds(5);
  SweepConfig sweep;
  sweep.seeds = 3;
  sweep.jobs = 3;
  const auto a = run_merged<measure::SpeedtestCampaign>(sweep, config);
  const auto b = run_merged<measure::SpeedtestCampaign>(sweep, config);
  EXPECT_EQ(a.mbps.values(), b.mbps.values());
}

}  // namespace
}  // namespace slp::runner
