#include "engine/shard_plan.hpp"

namespace polaris::engine {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index,
                          std::uint64_t tag) noexcept {
  // Two finalization rounds over the mixed (seed, index, tag) word. The
  // constants are splitmix64's; the odd multiplier on `index` separates
  // consecutive batch indices by a full avalanche before the first round.
  std::uint64_t z = seed ^ (index * 0x9e3779b97f4a7c15ULL) ^ tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ShardPlan ShardPlan::make(std::size_t total_batches) {
  ShardPlan plan;
  plan.total_batches = total_batches;
  if (total_batches == 0) return plan;
  std::size_t shards =
      (total_batches + kTargetBatchesPerShard - 1) / kTargetBatchesPerShard;
  // Floor: small batch counts (sequential designs pack 64*cycles_per_batch
  // samples per batch, so realistic budgets are just a handful of batches)
  // still split down to one batch per shard rather than collapsing to a
  // serial plan. Still a pure function of the batch count.
  const std::size_t floor_shards =
      total_batches < kMinShardsPerCampaign ? total_batches
                                            : kMinShardsPerCampaign;
  if (shards < floor_shards) shards = floor_shards;
  if (shards > kMaxShardsPerCampaign) shards = kMaxShardsPerCampaign;
  plan.batches_per_shard = (total_batches + shards - 1) / shards;
  plan.shard_count =
      (total_batches + plan.batches_per_shard - 1) / plan.batches_per_shard;
  return plan;
}

}  // namespace polaris::engine
