// summary.hpp — streaming moment statistics (Welford's algorithm).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace slp::stats {

/// Single-pass count/mean/variance/min/max accumulator.
///
/// Numerically stable for long campaigns (Welford update), O(1) memory, so it
/// can run inside per-packet hooks.
class StreamingSummary {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  void merge(const StreamingSummary& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
    m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    sum_ += other.sum_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Sum of squared deviations from the mean (Welford's M2).
  [[nodiscard]] double m2() const { return m2_; }

  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  /// Sample (Bessel-corrected) variance; 0 for fewer than 2 samples.
  [[nodiscard]] double sample_variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  [[nodiscard]] double stddev() const;

 private:
  friend class RunBatch;

  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Runs of one repeated value, folded into their summaries together.
///
/// stage(s, x, k) queues `k` samples of `x` for `s`; fold() then leaves
/// every staged summary exactly as `k` calls of s.add(x) would, bit for bit
/// (up to the sign and payload of a NaN result, which the compiler may vary
/// between call sites of add() itself). A one-run batch is that loop of adds.
///
/// The summaries of one batch must be distinct, so their runs are
/// independent dependency chains: fold() steps kLanes of them in lockstep,
/// each step doing add()'s arithmetic in add()'s order, and the CPU overlaps
/// the lanes' divisions instead of waiting on one run's. Once a summary's
/// mean has settled on a finite non-zero x, each further add(x) only bumps
/// the count and the sum: delta is +0.0, so mean_ keeps its bits and m2_
/// gains +0.0, which changes no m2_ (it starts at +0.0 and never turns
/// negative, so it is never -0.0). The rest of such a run moves to sum-only
/// lanes: one addition per sample, four chains at a time. min and max are
/// idempotent, so each run updates them once.
class RunBatch {
 public:
  /// Queues `k` samples of `x` for `s` (k == 0 queues nothing). `s` must
  /// outlive the next fold() and be staged at most once before it.
  void stage(StreamingSummary& s, double x, std::uint64_t k) {
    if (k > 0) runs_.push_back({&s, x, k});
  }
  /// Folds every staged run into its summary and empties the batch.
  void fold();

 private:
  struct Run {
    StreamingSummary* summary;
    double x;
    std::uint64_t k;  ///< samples still to fold
  };
  static constexpr std::size_t kLanes = 4;

  /// Welford lanes: folds each run up to the point its summary settles and
  /// leaves the settled remainder in its `k` (count and m2 already done).
  void fold_welford();
  /// Sum-only lanes: adds each remaining run's x to its sum `k` times.
  void fold_settled_sums();

  std::vector<Run> runs_;
};

}  // namespace slp::stats
