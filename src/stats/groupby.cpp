#include "stats/groupby.hpp"

#include <algorithm>
#include <cmath>

namespace slp::stats {

KeyedSamples::KeyedSamples(std::vector<double> edges) : edges_{std::move(edges)} {}

KeyedSamples::Group& KeyedSamples::group(std::uint64_t key) {
  Group& g = groups_[key];
  if (g.counts.empty()) g.counts.assign(edges_.size() + 1, 0);
  return g;
}

std::size_t KeyedSamples::bucket_of(double x) const {
  return static_cast<std::size_t>(std::upper_bound(edges_.begin(), edges_.end(), x) -
                                  edges_.begin());
}

void KeyedSamples::add_to(Group& g, double x) const {
  g.summary.add(x);
  ++g.counts[bucket_of(x)];
}

void KeyedSamples::add(std::uint64_t key, double x) { add_to(group(key), x); }

void KeyedSamples::Slot::add(double x) {
  if (group_ == nullptr) group_ = &owner_->group(key_);
  owner_->add_to(*group_, x);
}

void KeyedSamples::Slot::stage(RunBatch& batch, double x, std::uint64_t k) {
  if (k == 0) return;
  if (group_ == nullptr) group_ = &owner_->group(key_);
  group_->counts[owner_->bucket_of(x)] += k;
  batch.stage(group_->summary, x, k);
}

void KeyedSamples::merge(const KeyedSamples& other) {
  // Adopt the edges first, even from a group-less operand, so a fold into
  // a default-constructed KeyedSamples is the identity.
  if (groups_.empty() && edges_.empty()) edges_ = other.edges_;
  if (other.groups_.empty()) return;
  const bool compatible = edges_ == other.edges_;
  for (const auto& [key, from] : other.groups_) {
    Group& into = group(key);
    into.summary.merge(from.summary);
    if (compatible) {
      for (std::size_t i = 0; i < into.counts.size() && i < from.counts.size(); ++i) {
        into.counts[i] += from.counts[i];
      }
    } else {
      // Mismatched edges (never happens for config-driven shards): fold the
      // foreign counts into the nearest local bucket via the foreign mean so
      // totals stay consistent even if shapes degrade.
      const auto it =
          std::upper_bound(edges_.begin(), edges_.end(), from.summary.mean());
      into.counts[static_cast<std::size_t>(it - edges_.begin())] += from.summary.count();
    }
  }
}

std::uint64_t KeyedSamples::total_count() const {
  std::uint64_t n = 0;
  for (const auto& [key, g] : groups_) n += g.summary.count();
  return n;
}

StreamingSummary KeyedSamples::pooled() const {
  StreamingSummary s;
  for (const auto& [key, g] : groups_) s.merge(g.summary);
  return s;
}

double KeyedSamples::bucket_quantile(const Group& g, const std::vector<double>& edges,
                                     double q) {
  if (g.summary.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(g.summary.count());
  double below = 0.0;
  for (std::size_t i = 0; i < g.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(g.counts[i]);
    if (in_bucket > 0.0 && below + in_bucket >= target) {
      // Tail buckets are open-ended; bound them by the observed extrema so
      // interpolation never leaves the sample range.
      const double lo = i == 0 ? g.summary.min() : std::max(edges[i - 1], g.summary.min());
      const double hi =
          i == edges.size() ? g.summary.max() : std::min(edges[i], g.summary.max());
      const double f = std::clamp((target - below) / in_bucket, 0.0, 1.0);
      return lo + (std::max(hi, lo) - lo) * f;
    }
    below += in_bucket;
  }
  return g.summary.max();
}

double KeyedSamples::quantile(std::uint64_t key, double q) const {
  const auto it = groups_.find(key);
  return it == groups_.end() ? 0.0 : bucket_quantile(it->second, edges_, q);
}

double KeyedSamples::pooled_quantile(double q) const {
  Group all;
  all.counts.assign(edges_.size() + 1, 0);
  for (const auto& [key, g] : groups_) {
    all.summary.merge(g.summary);
    for (std::size_t i = 0; i < all.counts.size() && i < g.counts.size(); ++i) {
      all.counts[i] += g.counts[i];
    }
  }
  return bucket_quantile(all, edges_, q);
}

Samples KeyedSamples::means() const {
  Samples out;
  out.reserve(groups_.size());
  for (const auto& [key, g] : groups_) {
    if (!g.summary.empty()) out.add(g.summary.mean());
  }
  return out;
}

}  // namespace slp::stats
