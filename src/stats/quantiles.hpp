// quantiles.hpp — exact quantiles over retained samples.
//
// The paper's figures are all quantile-based (boxplots, percentile bands,
// CDFs), so we retain samples and compute exact quantiles with the standard
// linear-interpolation estimator (type 7, the numpy/R default).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "stats/summary.hpp"

namespace slp::stats {

/// Quantile of a *sorted* span, q in [0, 1], linear interpolation (type 7).
/// Requires a non-empty span.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Sample container with lazily-sorted quantile queries.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values) : values_(std::move(values)), dirty_(true) {
    for (const double x : values_) summary_.add(x);
  }
  Samples(std::initializer_list<double> values) : Samples(std::vector<double>{values}) {}

  void add(double x) {
    values_.push_back(x);
    summary_.add(x);
    dirty_ = true;
  }

  void add_all(std::span<const double> xs) {
    for (const double x : xs) add(x);
  }

  /// Appends `other`'s samples in their insertion order (the cell-id-ordered
  /// fold of runner::run_merged). Same as add_all(other.values()): every
  /// value goes through the streaming summary, so mean/min/max match a
  /// sequential build bit for bit.
  void merge(const Samples& other) {
    reserve(size() + other.size());
    add_all(other.values());
  }

  void reserve(std::size_t n) { values_.reserve(n); }
  void clear();

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const StreamingSummary& summary() const { return summary_; }

  /// Quantile q in [0, 1]. Requires non-empty samples.
  [[nodiscard]] double quantile(double q) const;
  /// Percentile p in [0, 100].
  [[nodiscard]] double percentile(double p) const { return quantile(p / 100.0); }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const { return summary_.mean(); }

  /// Sorted view (sorts on first use after mutation).
  [[nodiscard]] std::span<const double> sorted() const;

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = false;
  StreamingSummary summary_;
};

/// Five-number-plus summary matching the paper's boxplots: whiskers at
/// p5/p95, box at p25/p75, median stroke, and the distribution minimum that
/// Figure 1 annotates on the top axis.
struct BoxplotSummary {
  double min = 0.0;
  double p5 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] BoxplotSummary boxplot(const Samples& samples);

}  // namespace slp::stats
