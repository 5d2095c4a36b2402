// Internal width-generic kernel bodies for CompiledDesign::eval_comb.
//
// The combinational wave is written ONCE as a template over a lane-block
// type and instantiated per (width, instruction set): compiled.cpp stamps
// out the portable U64Block entries for both valid widths (1 and 4
// words), and compiled_avx2.cpp (built with -mavx2) stamps out the
// __m256i entry for the 4-word width, each in three toggle modes
// (ToggleMode, compiled.hpp). A block type provides
//   kWords, load/store, zeros/ones, the bitwise operators & | ^ ~, and
//   count() (a written slot's two toggle counts, ToggleCounter)
// and nothing else - the kernel bodies, the prelude execution, the
// write-time toggle update and its counts are identical across
// instantiations, which is what makes "forced portable vs forced AVX2
// produce identical words and counts" a property of construction rather
// than of testing luck.
//
// This header is internal to src/sim: nothing outside the kernel
// translation units should include it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/compiled.hpp"

namespace polaris::sim::detail {

/// One fully-specialized evaluator: runs the whole combinational wave over
/// blocked values/toggles arrays (slot i owns words [i*W, (i+1)*W)); only
/// the counting instantiations read the ToggleCounter.
using EvalFn = void (*)(const CompiledDesign&, std::uint64_t*, std::uint64_t*,
                        const ToggleCounter*);

/// Portable lane block: W unrolled uint64 words. The compiler's
/// autovectorizer may still widen these loops, but correctness never
/// depends on it - this is the fallback both widths support.
template <std::size_t W>
struct U64Block {
  static constexpr std::size_t kWords = W;
  std::uint64_t w[W];

  static U64Block load(const std::uint64_t* p) noexcept {
    U64Block b;
    for (std::size_t i = 0; i < W; ++i) b.w[i] = p[i];
    return b;
  }
  void store(std::uint64_t* p) const noexcept {
    for (std::size_t i = 0; i < W; ++i) p[i] = w[i];
  }
  static U64Block zeros() noexcept {
    U64Block b;
    for (std::size_t i = 0; i < W; ++i) b.w[i] = 0;
    return b;
  }
  static U64Block ones() noexcept {
    U64Block b;
    for (std::size_t i = 0; i < W; ++i) b.w[i] = ~0ULL;
    return b;
  }
  friend U64Block operator&(U64Block a, U64Block b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.w[i] &= b.w[i];
    return a;
  }
  friend U64Block operator|(U64Block a, U64Block b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.w[i] |= b.w[i];
    return a;
  }
  friend U64Block operator^(U64Block a, U64Block b) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.w[i] ^= b.w[i];
    return a;
  }
  friend U64Block operator~(U64Block a) noexcept {
    for (std::size_t i = 0; i < W; ++i) a.w[i] = ~a.w[i];
    return a;
  }
  /// Adds popcount(toggle & fixed) and popcount(toggle & active), summed
  /// over the words, into `count`.
  static void count(ToggleCount& count, U64Block toggle, U64Block fixed,
                    U64Block active) noexcept {
    for (std::size_t i = 0; i < W; ++i) {
      count.add(toggle.w[i], fixed.w[i], active.w[i]);
    }
  }
};

/// Friend gateway into CompiledDesign's private plan arrays: the kernel
/// template needs the run list and slot tables but nothing else does.
///
/// ToggleMode::kSkip skips the toggle computation and store entirely - the
/// value wave is identical, only the side channel recording is elided.
/// Used for "scaffolding" evals whose toggles nothing ever reads (e.g. the
/// base-state pass of a fixed-vs-random trace pair, where only the
/// base->target transition is sampled and the target pass recomputes every
/// toggle from the values array). Each elided write saves a load, an XOR,
/// and a store per op output. ToggleMode::kCount also adds each flagged
/// written slot's two counts (ToggleCounter) while the toggle block is in
/// registers.
struct KernelAccess {
  template <class Block, ToggleMode Mode>
  static void eval(const CompiledDesign& plan, std::uint64_t* values,
                   [[maybe_unused]] std::uint64_t* toggles,
                   [[maybe_unused]] const ToggleCounter* counter) {
    constexpr std::size_t W = Block::kWords;
    const auto load = [&](std::uint32_t slot) {
      return Block::load(values + static_cast<std::size_t>(slot) * W);
    };
    [[maybe_unused]] Block fixed = Block::zeros();
    [[maybe_unused]] Block active = Block::zeros();
    [[maybe_unused]] ToggleCount* counts = nullptr;
    [[maybe_unused]] const std::uint8_t* counted = nullptr;
    if constexpr (Mode == ToggleMode::kCount) {
      fixed = Block::load(counter->fixed_masks);
      active = Block::load(counter->active_masks);
      counts = counter->counts;
      counted = counter->counted;
    }
    // Write-time toggle update, the invariant behind every bit-identity
    // guarantee (the simulator's source refresh follows it word by word):
    // each slot is written at most once per eval, so old XOR new is the
    // per-word toggle.
    const auto write = [&](std::uint32_t slot, Block v) {
      const std::size_t off = static_cast<std::size_t>(slot) * W;
      if constexpr (Mode != ToggleMode::kSkip) {
        const Block toggle = Block::load(values + off) ^ v;
        toggle.store(toggles + off);
        if constexpr (Mode == ToggleMode::kCount) {
          if (counted[slot] != 0) {
            Block::count(counts[slot], toggle, fixed, active);
          }
        }
      }
      v.store(values + off);
    };
    using K = CompiledDesign::OpKernel;

    for (const auto& run : plan.runs_) {
      // Fused buf/not prelude: the folded run's ops execute first, inside
      // this dispatch, in their original order - same writes, same order,
      // one switch fewer.
      if (run.prelude_op_count != 0) {
        const std::uint32_t* pout =
            plan.op_out_slots_.data() + run.prelude_op_begin;
        const std::uint32_t* pin =
            plan.op_input_slots_.data() + run.prelude_input_base;
        if (run.prelude_invert) {
          for (std::size_t i = 0; i < run.prelude_op_count; ++i) {
            write(pout[i], ~load(pin[i]));
          }
        } else {
          for (std::size_t i = 0; i < run.prelude_op_count; ++i) {
            write(pout[i], load(pin[i]));
          }
        }
      }

      const std::uint32_t* out = plan.op_out_slots_.data() + run.op_begin;
      const std::uint32_t* in = plan.op_input_slots_.data() + run.input_base;
      const std::size_t n = run.op_count;
      const std::size_t k = run.fan_in;
      switch (run.kernel) {
        case K::kBuf:
          for (std::size_t i = 0; i < n; ++i) write(out[i], load(in[i]));
          break;
        case K::kNot:
          for (std::size_t i = 0; i < n; ++i) write(out[i], ~load(in[i]));
          break;
        case K::kMux:
          for (std::size_t i = 0; i < n; ++i) {
            const Block sel = load(in[3 * i]);
            write(out[i], (sel & load(in[3 * i + 2])) |
                              (~sel & load(in[3 * i + 1])));
          }
          break;
        case K::kAnd2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], load(in[2 * i]) & load(in[2 * i + 1]));
          }
          break;
        case K::kOr2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], load(in[2 * i]) | load(in[2 * i + 1]));
          }
          break;
        case K::kNand2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], ~(load(in[2 * i]) & load(in[2 * i + 1])));
          }
          break;
        case K::kNor2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], ~(load(in[2 * i]) | load(in[2 * i + 1])));
          }
          break;
        case K::kXor2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], load(in[2 * i]) ^ load(in[2 * i + 1]));
          }
          break;
        case K::kXnor2:
          for (std::size_t i = 0; i < n; ++i) {
            write(out[i], ~(load(in[2 * i]) ^ load(in[2 * i + 1])));
          }
          break;
        case K::kAndN:
        case K::kNandN:
          for (std::size_t i = 0; i < n; ++i) {
            Block acc = Block::ones();
            for (std::size_t j = 0; j < k; ++j) acc = acc & load(in[i * k + j]);
            write(out[i], run.kernel == K::kAndN ? acc : ~acc);
          }
          break;
        case K::kOrN:
        case K::kNorN:
          for (std::size_t i = 0; i < n; ++i) {
            Block acc = Block::zeros();
            for (std::size_t j = 0; j < k; ++j) acc = acc | load(in[i * k + j]);
            write(out[i], run.kernel == K::kOrN ? acc : ~acc);
          }
          break;
        case K::kXorN:
        case K::kXnorN:
          for (std::size_t i = 0; i < n; ++i) {
            Block acc = Block::zeros();
            for (std::size_t j = 0; j < k; ++j) acc = acc ^ load(in[i * k + j]);
            write(out[i], run.kernel == K::kXorN ? acc : ~acc);
          }
          break;
      }
    }
  }
};

/// Portable evaluator for a valid width (1 or 4 words) and toggle mode.
[[nodiscard]] EvalFn portable_kernel(std::size_t lane_words,
                                     ToggleMode mode) noexcept;
/// AVX2 evaluator for the 4-word block; nullptr when the build lacks the
/// -mavx2 unit.
[[nodiscard]] EvalFn avx2_kernel(ToggleMode mode) noexcept;
[[nodiscard]] bool avx2_built_impl() noexcept;
/// Applies the SimdMode / CPUID policy (simd.hpp) to pick the evaluator
/// for a dispatch at a valid width. Never returns nullptr.
[[nodiscard]] EvalFn resolve_eval_fn(std::size_t lane_words,
                                     ToggleMode mode) noexcept;

}  // namespace polaris::sim::detail
