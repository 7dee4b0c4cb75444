// summary.hpp — streaming moment statistics (Welford's algorithm).
#pragma once

#include <cstdint>
#include <limits>

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

  /// Exactly what `k` calls of add(x) leave behind, bit for bit (up to the
  /// sign and payload of a NaN result, which the compiler may vary between
  /// call sites of add() itself). Once the mean has settled on a finite
  /// non-zero x, each further add(x) only bumps the count and the sum (delta
  /// is +0.0), so a run of one repeated value costs one addition per sample
  /// instead of a Welford step.
  void add_repeated(double x, std::uint64_t k);

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
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace slp::stats
