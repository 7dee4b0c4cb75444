// histogram.hpp — integer-count histograms.
#pragma once

#include <cstdint>
#include <map>

namespace slp::stats {

/// Sparse histogram over non-negative integers; used for loss-burst lengths
/// where the support is tiny but unbounded.
class IntHistogram {
 public:
  void add(std::uint64_t value, std::uint64_t weight = 1) {
    counts_[value] += weight;
    total_ += weight;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(std::uint64_t value) const {
    const auto it = counts_.find(value);
    return it == counts_.end() ? 0 : it->second;
  }
  /// P[X <= value].
  [[nodiscard]] double cdf(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t max_value() const {
    return counts_.empty() ? 0 : counts_.rbegin()->first;
  }
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& buckets() const { return counts_; }

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace slp::stats
