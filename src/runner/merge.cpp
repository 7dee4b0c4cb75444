#include "runner/merge.hpp"

namespace slp::runner {

void merge(stats::Samples& into, const stats::Samples& from) { into.merge(from); }

stats::Samples merge_samples(std::span<const stats::Samples> shards) {
  stats::Samples out;
  std::size_t total = 0;
  for (const stats::Samples& shard : shards) total += shard.size();
  out.reserve(total);
  for (const stats::Samples& shard : shards) out.merge(shard);
  return out;
}

stats::Ecdf merged_ecdf(std::span<const stats::Samples> shards) {
  return stats::Ecdf{merge_samples(shards)};
}

void merge(stats::TimeBinner& into, const stats::TimeBinner& from) {
  into.merge(from);
}

}  // namespace slp::runner
