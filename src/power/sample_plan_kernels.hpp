// The tiled multi-group readout behind power::SamplePlan::read_multis,
// written once over a tile type and instantiated twice: on plain doubles in
// sample_plan.cpp, and on __m256d vectors in sample_plan_avx2.cpp, the power
// unit built with -mavx2. Both units build with -ffp-contract=off, so no
// multiply and add ever fuse and both kernels run the same IEEE ops.
//
// Internal to src/power. Everything here is a template over the tile type,
// and each unit's tile type has internal linkage, so the linker can never
// merge an AVX2 instantiation into the portable path.
//
// A tile type T holds one double per group of a tile and provides:
//   T::load(p) / t.store(p)      kTileGroups doubles at p
//   T::broadcast(x)              x in every group
//   T::take(p)                   load kTileGroups doubles at p, zero them
//                                (a lane is taken once per word, so the
//                                lane-major tile ends each word zeroed)
//   + - * /                      per group, IEEE double
//   T::sum_lanes(block, g0, w)   lane sums of word w for the tile at group
//                                g0, lane-major into block.scratch
#pragma once

#include <cstdint>

#include "power/sample_plan.hpp"

namespace polaris::power::detail {

inline constexpr std::size_t kTileGroups = SamplePlan::kTileGroups;
inline constexpr std::size_t kTileLanes = 64;

/// Everything one block's multi readout reads and writes.
struct MultiBlock {
  const SamplePlan::MultiOp* members;  // grouped by multi index
  const std::uint32_t* member_begin;   // groups + 1 offsets into members
  std::size_t groups;
  const std::uint64_t* toggle_words;  // blocked: slot s owns [s*K, (s+1)*K)
  std::size_t lane_words;             // K
  std::size_t active_words;
  const std::uint64_t* class_masks;
  SamplePlan::ClassState fixed;
  SamplePlan::ClassState random;
  /// SamplePlan::kScratchDoubles: the lane-major tile [lane][group], zero
  /// on entry and on return, then the group-major tile [group][lane],
  /// which only the AVX2 kernel uses and which may hold anything.
  double* scratch;
};

using MultiReadoutFn = void (*)(const MultiBlock&);

/// The AVX2 readout, or nullptr when the build lacks the -mavx2 unit.
[[nodiscard]] MultiReadoutFn avx2_multi_readout() noexcept;

/// The first `count` of kTileGroups values at `src`, zero-padded.
template <class Tile>
Tile load_groups(const double* src, std::size_t count) {
  double padded[kTileGroups] = {};
  for (std::size_t i = 0; i < count; ++i) padded[i] = src[i];
  return Tile::load(padded);
}

template <class Tile>
void store_groups(const Tile& tile, double* dst, std::size_t count) {
  double padded[kTileGroups];
  tile.store(padded);
  for (std::size_t i = 0; i < count; ++i) dst[i] = padded[i];
}

/// One class's state of a tile and its shared sample count.
template <class Tile>
struct TileClass {
  Tile mean;
  Tile s2;
  std::uint64_t count;

  /// Pushes the lane-major samples of `lane` into every group of the tile:
  /// tvla::MomentAccumulator::add's mean and S2 update, step for step.
  void push(double* values, std::size_t lane) {
    const Tile n1 = Tile::broadcast(static_cast<double>(count));
    ++count;
    const Tile n = Tile::broadcast(static_cast<double>(count));
    const Tile delta = Tile::take(values + lane * kTileGroups) - mean;
    const Tile delta_n = delta / n;
    const Tile term1 = (delta * delta_n) * n1;
    mean = mean + delta_n;
    s2 = s2 + term1;
  }
};

/// Pushes one word's samples: each class's lanes in ascending order. The
/// two classes' updates are independent chains, so they go in pairs (one
/// fixed lane, one random lane) to overlap each chain's division latency.
template <class Tile>
void push_word(std::uint64_t fixed_lanes, double* values,
               TileClass<Tile>& fixed, TileClass<Tile>& random) {
  std::uint64_t random_lanes = ~fixed_lanes;
  const auto next = [](std::uint64_t& lanes) {
    const auto lane = static_cast<std::size_t>(__builtin_ctzll(lanes));
    lanes &= lanes - 1;
    return lane;
  };
  while (fixed_lanes != 0 && random_lanes != 0) {
    fixed.push(values, next(fixed_lanes));
    random.push(values, next(random_lanes));
  }
  while (fixed_lanes != 0) fixed.push(values, next(fixed_lanes));
  while (random_lanes != 0) random.push(values, next(random_lanes));
}

/// The readout of one block: tiles outer, sampled words inner, so a tile's
/// state stays in registers across the block.
template <class Tile>
void read_multis_tiled(const MultiBlock& block) {
  double* values = block.scratch;
  for (std::size_t g0 = 0; g0 < block.groups; g0 += kTileGroups) {
    const std::size_t count =
        block.groups - g0 < kTileGroups ? block.groups - g0 : kTileGroups;
    TileClass<Tile> fixed{load_groups<Tile>(block.fixed.mean + g0, count),
                          load_groups<Tile>(block.fixed.s2 + g0, count),
                          block.fixed.count};
    TileClass<Tile> random{load_groups<Tile>(block.random.mean + g0, count),
                           load_groups<Tile>(block.random.s2 + g0, count),
                           block.random.count};
    for (std::size_t w = 0; w < block.active_words; ++w) {
      Tile::sum_lanes(block, g0, w);
      push_word(block.class_masks[w], values, fixed, random);
    }
    store_groups(fixed.mean, block.fixed.mean + g0, count);
    store_groups(fixed.s2, block.fixed.s2 + g0, count);
    store_groups(random.mean, block.random.mean + g0, count);
    store_groups(random.s2, block.random.s2 + g0, count);
  }
}

}  // namespace polaris::power::detail
