// Runtime SIMD dispatch control for the compiled simulation kernel and the
// sampling readout (power/sample_plan.hpp).
//
// The kernel (compiled.hpp) evaluates K-word *lane blocks*: every value
// slot owns K contiguous 64-bit words, so one op processes 64*K traces.
// K is 4 for combinational campaigns (256 traces per pass) and 1 for
// sequential campaigns and one-off simulators. Two instantiations of the
// same width-generic kernel template exist:
//  * a portable unrolled-uint64 path, always available, for both widths;
//  * an AVX2 path (one __m256i per 4-word block) compiled in its own
//    -mavx2 translation unit, for the 4-word width.
// Which one runs is decided here, once per eval dispatch:
//  * kAuto (the default): AVX2 whenever the CPU reports it (CPUID via
//    __builtin_cpu_supports) and the build contains the AVX2 unit;
//  * POLARIS_SIMD=off|0|portable|none in the environment flips the
//    process default to kPortable (the CI portable-fallback leg);
//  * set_simd_mode() overrides both - the property tests force kPortable
//    and kAvx2 in turn and assert bit-identical words.
// 1-word blocks always take the portable path; simd_name() reports the
// path a given width would actually use. The sampling readout follows the
// same mode at both widths.
#pragma once

#include <cstddef>

namespace polaris::sim {

enum class SimdMode { kAuto, kPortable, kAvx2 };

/// Lane-block width of combinational campaigns that leave lane_words = 0:
/// 4 words, 256 traces per pass.
inline constexpr std::size_t kDefaultLaneWords = 4;

/// Lane-block widths the kernel tables cover: 1 or 4 words.
[[nodiscard]] constexpr bool valid_lane_words(std::size_t words) noexcept {
  return words == 1 || words == 4;
}

/// CPU reports AVX2 (CPUID; cached). False on non-x86 builds.
[[nodiscard]] bool avx2_supported() noexcept;
/// The build contains the -mavx2 kernel translation unit.
[[nodiscard]] bool avx2_built() noexcept;

/// Current process-wide mode (initially kAuto, or kPortable when the
/// POLARIS_SIMD environment variable says off|0|portable|none|false).
[[nodiscard]] SimdMode simd_mode() noexcept;
/// Overrides the mode. Throws std::runtime_error for kAvx2 when the CPU or
/// the build lacks AVX2 (callers probe avx2_supported() && avx2_built()).
void set_simd_mode(SimdMode mode);

/// True when the current mode lets AVX2 code run at all: kAvx2, or kAuto on
/// a CPU and build that have it. The sampling readout
/// (power/sample_plan.hpp), whose vectors run across gate groups rather
/// than lane words, asks this directly.
[[nodiscard]] bool avx2_enabled() noexcept;

/// True when a kernel dispatch at this width takes the AVX2 path under the
/// current mode: a 4-word width and avx2_enabled().
[[nodiscard]] bool simd_active(std::size_t lane_words) noexcept;
/// "avx2" or "portable" - the path simd_active() resolves to. Bench probes
/// record this next to traces/sec.
[[nodiscard]] const char* simd_name(std::size_t lane_words) noexcept;

}  // namespace polaris::sim
