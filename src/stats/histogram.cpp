#include "stats/histogram.hpp"

namespace slp::stats {

double IntHistogram::cdf(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t cum = 0;
  for (const auto& [v, c] : counts_) {
    if (v > value) break;
    cum += c;
  }
  return static_cast<double>(cum) / static_cast<double>(total_);
}

}  // namespace slp::stats
