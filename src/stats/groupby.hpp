// groupby.hpp — streaming per-key sample accumulation with ordered merge.
//
// A 10k-terminal fleet observed every couple of seconds for a simulated hour
// produces ~2e7 (key, value) pairs per direction — far too many to retain as
// raw stats::Samples per key. KeyedSamples keeps O(keys x buckets) state
// instead: every key gets a StreamingSummary (exact moments, min, max) plus
// a bucket-count vector over one shared set of edges, which is enough for
// approximate quantiles and ECDF curves per key or pooled.
//
// Merge contract: groups fold in ascending key order and bucket counts add
// elementwise, so runner::run_merged's cell-id-ordered fold produces
// byte-identical results for any --jobs. Both operands must share the same
// edges (or be empty/edge-less, in which case the other side's edges are
// adopted) — in this codebase the edges come from config, so shards always
// agree.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "stats/quantiles.hpp"
#include "stats/summary.hpp"

namespace slp::stats {

class KeyedSamples {
 public:
  KeyedSamples() = default;
  /// `edges` must be strictly increasing; bucket i counts values in
  /// [edges[i-1], edges[i]), with open buckets below edges[0] and at/above
  /// edges.back(). Empty edges = a single bucket (summaries stay exact,
  /// quantiles interpolate min..max).
  explicit KeyedSamples(std::vector<double> edges);

  struct Group {
    StreamingSummary summary;
    std::vector<std::uint64_t> counts;  ///< size = edges.size() + 1
  };

  void add(std::uint64_t key, double x);

  /// One key's group, looked up at the first add() and cached after it, so
  /// a caller adding to the same key every epoch pays the map lookup once.
  /// Holding a Slot creates no group; its first add() does, exactly as
  /// add(key, x) would. std::map nodes are stable and nothing erases a
  /// group, so the cached pointer stays valid while the owner lives and is
  /// neither assigned to nor moved from.
  class Slot {
   public:
    Slot() = default;
    Slot(KeyedSamples& owner, std::uint64_t key) : owner_{&owner}, key_{key} {}
    void add(double x);
    /// Stages `k` samples of `x`: the bucket count moves now, the summary
    /// when `batch` folds (RunBatch::fold), after which the group equals `k`
    /// calls of add(x) bit for bit. k == 0 creates no group. A slot is
    /// staged at most once per fold.
    void stage(RunBatch& batch, double x, std::uint64_t k);

   private:
    KeyedSamples* owner_ = nullptr;
    std::uint64_t key_ = 0;
    Group* group_ = nullptr;
  };
  [[nodiscard]] Slot slot(std::uint64_t key) { return Slot{*this, key}; }

  /// Key-ordered deterministic fold (found by ADL from runner::run_merged
  /// through the campaign Results that embed KeyedSamples).
  void merge(const KeyedSamples& other);

  [[nodiscard]] bool empty() const { return groups_.empty(); }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  [[nodiscard]] const std::map<std::uint64_t, Group>& groups() const { return groups_; }

  /// Exact pooled moments (merge of every key's summary).
  [[nodiscard]] StreamingSummary pooled() const;

  /// Approximate quantile for one key: locate the bucket by rank, then
  /// interpolate linearly inside it (tail buckets are bounded by the key's
  /// observed min/max, so q=0/q=1 are exact). Returns 0 for unknown keys.
  [[nodiscard]] double quantile(std::uint64_t key, double q) const;
  /// Approximate quantile over all keys pooled.
  [[nodiscard]] double pooled_quantile(double q) const;

  /// Per-key means in ascending key order — the "distribution across cells /
  /// terminals" view the fleet ECDFs plot.
  [[nodiscard]] Samples means() const;

 private:
  /// `key`'s group, created empty (with zeroed counts) on first use.
  Group& group(std::uint64_t key);
  void add_to(Group& g, double x) const;
  [[nodiscard]] std::size_t bucket_of(double x) const;
  [[nodiscard]] static double bucket_quantile(const Group& g,
                                              const std::vector<double>& edges, double q);

  std::vector<double> edges_;
  std::map<std::uint64_t, Group> groups_;
};

}  // namespace slp::stats
