#include "stats/summary.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace slp::stats {

double StreamingSummary::stddev() const { return std::sqrt(sample_variance()); }

void RunBatch::fold() {
  fold_welford();
  fold_settled_sums();
  runs_.clear();
}

void RunBatch::fold_welford() {
  constexpr std::uint64_t kIdle = std::numeric_limits<std::uint64_t>::max();
  // Lane state stays in locals while the lanes step. An idle lane steps on
  // harmless values, never settles, and is never written back.
  std::array<Run*, kLanes> run{};
  std::array<std::uint64_t, kLanes> count{};
  std::array<std::uint64_t, kLanes> left{};
  std::array<double, kLanes> x{};
  std::array<double, kLanes> mean{};
  std::array<double, kLanes> m2{};
  std::array<double, kLanes> sum{};
  std::array<bool, kLanes> settles{};  ///< x is finite and non-zero
  left.fill(kIdle);
  std::size_t next = 0;
  std::size_t busy = 0;
  for (;;) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      while (run[l] == nullptr && next < runs_.size()) {
        Run& r = runs_[next++];
        StreamingSummary& s = *r.summary;
        if (r.x < s.min_) s.min_ = r.x;
        if (r.x > s.max_) s.max_ = r.x;
        // An empty summary's first add sets its mean; from then on the
        // count is positive, so "settled" is x == mean_ for such an x.
        if (s.count_ == 0) {
          s.add(r.x);
          if (--r.k == 0) continue;
        }
        const bool finite_nonzero = std::isfinite(r.x) && r.x != 0.0;
        if (finite_nonzero && r.x == s.mean_) {
          s.count_ += r.k;  // the rest of the run is sums only
          continue;
        }
        run[l] = &r;
        count[l] = s.count_;
        left[l] = r.k;
        x[l] = r.x;
        mean[l] = s.mean_;
        m2[l] = s.m2_;
        sum[l] = s.sum_;
        settles[l] = finite_nonzero;
        ++busy;
      }
    }
    if (busy == 0) return;
    // Step every lane until one of them runs out or settles; the settled
    // check comes before each add, as add() would see it.
    const std::uint64_t steps = *std::min_element(left.begin(), left.end());
    std::uint64_t done = 0;
    for (; done < steps; ++done) {
      bool settled = false;
      for (std::size_t l = 0; l < kLanes; ++l) settled |= settles[l] & (x[l] == mean[l]);
      if (settled) break;
      for (std::size_t l = 0; l < kLanes; ++l) {
        ++count[l];
        const double delta = x[l] - mean[l];
        mean[l] += delta / static_cast<double>(count[l]);
        m2[l] += delta * (x[l] - mean[l]);
        sum[l] += x[l];
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (run[l] == nullptr) continue;
      left[l] -= done;
      const bool settled = settles[l] && x[l] == mean[l];
      if (left[l] > 0 && !settled) continue;
      StreamingSummary& s = *run[l]->summary;
      s.count_ = count[l] + left[l];
      s.mean_ = mean[l];
      s.m2_ = m2[l];
      s.sum_ = sum[l];
      run[l]->k = left[l];  // the settled remainder: sums only
      run[l] = nullptr;
      left[l] = kIdle;
      settles[l] = false;
      --busy;
    }
  }
}

void RunBatch::fold_settled_sums() {
  constexpr std::uint64_t kIdle = std::numeric_limits<std::uint64_t>::max();
  std::array<double*, kLanes> into{};
  std::array<std::uint64_t, kLanes> left{};
  std::array<double, kLanes> x{};
  std::array<double, kLanes> sum{};
  left.fill(kIdle);
  std::size_t next = 0;
  std::size_t busy = 0;
  for (;;) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      while (into[l] == nullptr && next < runs_.size()) {
        const Run& r = runs_[next++];
        if (r.k == 0) continue;
        into[l] = &r.summary->sum_;
        left[l] = r.k;
        x[l] = r.x;
        sum[l] = r.summary->sum_;
        ++busy;
      }
    }
    if (busy == 0) return;
    const std::uint64_t steps = *std::min_element(left.begin(), left.end());
    for (std::uint64_t i = 0; i < steps; ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) sum[l] += x[l];
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (into[l] == nullptr) continue;
      left[l] -= steps;
      if (left[l] > 0) continue;
      *into[l] = sum[l];
      into[l] = nullptr;
      left[l] = kIdle;
      x[l] = 0.0;  // an idle lane adds zeros, never a subnormal
      --busy;
    }
  }
}

}  // namespace slp::stats
