// Shard plan and per-batch stream keys: the two pure functions every
// campaign's execution rests on.
//
// A TVLA campaign is a loop of independent *batches* (64 lanes each, or
// 64 lanes x cycles_per_batch samples for sequential designs). The plan
// splits the batch index space into contiguous shards; each shard runs
// with its own simulator + RNG streams, wherever it is placed (a local
// lane of engine::Scheduler or a remote shard worker), and shard states
// merge in ascending shard order.
//
// Determinism contract (tested in tests/test_engine.cpp):
//  * every random quantity a batch consumes is derived from
//    stream_seed(campaign_seed, batch_index, tag) - never from "whatever
//    the previous batch left in the generator". Batch b therefore produces
//    the same samples no matter which shard, thread, or host executes it;
//  * the shard plan depends only on the batch count (never on the thread
//    or worker count), so the floating-point merge order is fixed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace polaris::engine {

/// Expands (seed, index, tag) into an independent 64-bit stream seed via
/// two rounds of splitmix64-style mixing. Distinct (index, tag) pairs give
/// uncorrelated child streams; feeding the result to util::Xoshiro256 (whose
/// constructor runs its own splitmix expansion) yields the per-batch
/// generators used by the TVLA protocol layer.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index,
                                        std::uint64_t tag) noexcept;

/// Contiguous partition of [0, total_batches) into shards. Pure function of
/// the batch count: thread count never changes shard boundaries.
struct ShardPlan {
  std::size_t total_batches = 0;
  std::size_t shard_count = 0;
  std::size_t batches_per_shard = 0;  // every shard except possibly the last

  [[nodiscard]] static ShardPlan make(std::size_t total_batches);

  [[nodiscard]] std::size_t begin(std::size_t shard) const {
    return shard * batches_per_shard;
  }
  [[nodiscard]] std::size_t end(std::size_t shard) const {
    const std::size_t e = begin(shard) + batches_per_shard;
    return e < total_batches ? e : total_batches;
  }
};

/// Target shard granularity: enough shards to load-balance a wide machine,
/// few enough that per-shard simulator construction stays negligible. The
/// minimum keeps short campaigns (notably sequential designs, whose batches
/// each carry 64 * cycles_per_batch samples) parallel down to one batch per
/// shard instead of collapsing to a serial plan.
inline constexpr std::size_t kTargetBatchesPerShard = 4;
inline constexpr std::size_t kMinShardsPerCampaign = 16;
inline constexpr std::size_t kMaxShardsPerCampaign = 64;

}  // namespace polaris::engine
