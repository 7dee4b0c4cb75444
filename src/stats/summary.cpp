#include "stats/summary.hpp"

#include <cmath>

namespace slp::stats {

double StreamingSummary::stddev() const { return std::sqrt(sample_variance()); }

void StreamingSummary::add_repeated(double x, std::uint64_t k) {
  for (; k > 0; --k) {
    if (count_ > 0 && x == mean_ && std::isfinite(x) && x != 0.0) break;
    add(x);
  }
  if (k == 0) return;
  // add(x) with x == mean_: mean_ += +0.0 / n leaves a non-zero mean_ as it
  // is, and m2_ += +0.0 only ever turns a -0.0 into +0.0. Both that and the
  // min/max updates are idempotent, so once suffices; the sum is not.
  count_ += k;
  m2_ += 0.0;
  for (; k > 0; --k) sum_ += x;
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

}  // namespace slp::stats
