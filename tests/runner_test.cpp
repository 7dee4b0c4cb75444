// runner_test.cpp — pool lifecycle, exception safety, and the determinism
// guarantee that motivates the whole subsystem: the merged output of a
// multi-seed sweep is bit-identical whatever the worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "measure/campaign.hpp"
#include "runner/pool.hpp"
#include "runner/sweep.hpp"

namespace slp::runner {
namespace {

TEST(Pool, RunsEverySubmittedTask) {
  Pool pool{4};
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(Pool, DrainOnEmptyPoolReturnsImmediately) {
  Pool pool{2};
  pool.drain();
  pool.drain();
}

TEST(Pool, IsReusableAcrossDrains) {
  Pool pool{3};
  std::atomic<int> ran{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.drain();
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(Pool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    Pool pool{2};
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No drain(): the destructor must wait for all 32.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(Pool, DrainRethrowsFirstTaskException) {
  Pool pool{2};
  std::atomic<int> entered{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&entered, &ran, i] {
      entered.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error{"cell 3 failed"};
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(pool.drain(), std::runtime_error);
  // The failure did not cancel the other cells...
  EXPECT_EQ(ran.load(), 9);
  EXPECT_EQ(entered.load(), 10);
  // ...and the pool stays usable, with the error slot cleared.
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(pool.drain());
  EXPECT_EQ(ran.load(), 10);
}

TEST(Pool, NestedSubmitFromWorkerCompletes) {
  Pool pool{2};
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &ran] {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 16);
}

TEST(Pool, ServesNewestTaskFirst) {
  Pool pool{1};
  std::latch started{1};
  std::latch release{1};
  pool.submit([&] {
    started.count_down();
    release.wait();
  });
  started.wait();  // the only worker is now held inside the first task
  std::vector<int> order;  // written by that one worker alone
  for (int i = 0; i < 5; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  release.count_down();
  pool.drain();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(CellSeed, CellZeroPreservesBaseSeed) {
  EXPECT_EQ(cell_seed(42, 0), 42u);
  EXPECT_EQ(cell_seed(0xDEADBEEF, 0), 0xDEADBEEFull);
}

TEST(CellSeed, CellsAreDistinct) {
  std::vector<std::uint64_t> seen;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    seen.push_back(cell_seed(7, cell));
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]) << "cells " << i << " and " << j;
    }
  }
}

TEST(RunIndexed, SlotIHoldsFnOfIWhateverThePoolWidth) {
  for (const int jobs : {1, 3, 8}) {
    Pool pool{jobs};
    std::atomic<int> calls{0};
    const auto out = run_indexed(pool, 100, [&calls](std::size_t i) {
      calls.fetch_add(1, std::memory_order_relaxed);
      return cell_seed(5, i);
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], cell_seed(5, i)) << "slot " << i << ", " << jobs << " jobs";
    }
    EXPECT_EQ(calls.load(), 100);  // one call per slot
    EXPECT_TRUE(run_indexed(pool, 0, [](std::size_t) { return 0; }).empty());
  }
}

// ====================================================== jobs invariance

measure::PingCampaign::Result ping_sweep(int jobs) {
  measure::PingCampaign::Config config;
  config.seed = 20220131;
  config.duration = Duration::minutes(20);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  SweepConfig sweep;
  sweep.seeds = 4;
  sweep.jobs = jobs;
  return run_merged<measure::PingCampaign>(sweep, config);
}

TEST(Sweep, MergedPingCampaignIsJobsInvariant) {
  const auto serial = ping_sweep(1);
  ASSERT_FALSE(serial.anchors.empty());
  ASSERT_GT(serial.pings_sent, 0u);
  for (const int jobs : {2, 8}) {
    const auto parallel = ping_sweep(jobs);
    EXPECT_EQ(serial.pings_sent, parallel.pings_sent) << jobs << " jobs";
    EXPECT_EQ(serial.pings_lost, parallel.pings_lost) << jobs << " jobs";
    ASSERT_EQ(serial.anchors.size(), parallel.anchors.size());
    for (std::size_t a = 0; a < serial.anchors.size(); ++a) {
      const auto& sv = serial.anchors[a].rtt_ms.values();
      const auto& pv = parallel.anchors[a].rtt_ms.values();
      ASSERT_EQ(sv.size(), pv.size()) << "anchor " << a << ", " << jobs << " jobs";
      // Bit-identical, including sample *order* (merge is cell-id ordered).
      for (std::size_t k = 0; k < sv.size(); ++k) {
        ASSERT_EQ(sv[k], pv[k]) << "anchor " << a << " sample " << k;
      }
    }
    for (std::size_t h = 0; h < serial.eu_by_hour.size(); ++h) {
      EXPECT_EQ(serial.eu_by_hour[h], parallel.eu_by_hour[h]) << "hour " << h;
    }
    ASSERT_EQ(serial.eu_timeline.bins(), parallel.eu_timeline.bins());
    for (std::size_t b = 0; b < serial.eu_timeline.bins(); ++b) {
      EXPECT_EQ(serial.eu_timeline.bin(b).values(), parallel.eu_timeline.bin(b).values());
    }
  }
}

TEST(Sweep, SingleCellSweepMatchesPlainCampaign) {
  measure::PingCampaign::Config config;
  config.seed = 77;
  config.duration = Duration::minutes(15);
  config.cadence = Duration::minutes(5);
  config.epochs = false;
  const auto plain = measure::PingCampaign::run(config);
  SweepConfig sweep;  // seeds = 1
  sweep.jobs = 2;
  const auto swept = run_merged<measure::PingCampaign>(sweep, config);
  EXPECT_EQ(plain.pings_sent, swept.pings_sent);
  ASSERT_EQ(plain.anchors.size(), swept.anchors.size());
  for (std::size_t a = 0; a < plain.anchors.size(); ++a) {
    EXPECT_EQ(plain.anchors[a].rtt_ms.values(), swept.anchors[a].rtt_ms.values());
  }
}

}  // namespace
}  // namespace slp::runner
