// AVX2 instantiations of the shared kernel template (compiled_kernels.hpp):
// the 4-word block in each toggle mode.
//
// This and power/sample_plan_avx2.cpp are the only translation units built
// with -mavx2 (CMake sets the flag per-source), so __m256i codegen never
// leaks into code that runs before the CPUID dispatch check. On builds
// without AVX2 support the stubs below report "not built" and every
// dispatch takes the portable table.
#include "sim/compiled_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace polaris::sim::detail {

namespace {

/// One 4-word lane block (256 traces) in one 256-bit vector.
struct Avx2Block {
  static constexpr std::size_t kWords = 4;
  __m256i v;

  static Avx2Block load(const std::uint64_t* p) noexcept {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint64_t* p) const noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Avx2Block zeros() noexcept { return {_mm256_setzero_si256()}; }
  static Avx2Block ones() noexcept { return {_mm256_set1_epi64x(-1)}; }
  friend Avx2Block operator&(Avx2Block a, Avx2Block b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend Avx2Block operator|(Avx2Block a, Avx2Block b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
  }
  friend Avx2Block operator^(Avx2Block a, Avx2Block b) noexcept {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  friend Avx2Block operator~(Avx2Block a) noexcept {
    return {_mm256_xor_si256(a.v, _mm256_set1_epi64x(-1))};
  }
  /// Adds popcount(toggle & fixed) and popcount(toggle & active) into
  /// `count`: nibble-table popcounts (vpshufb) summed per 64-bit lane
  /// (vpsadbw), both masks reduced together. Measured faster than four
  /// extracted words through popcnt.
  static void count(ToggleCount& count, Avx2Block toggle, Avx2Block fixed,
                    Avx2Block active) noexcept {
    const __m256i nibble_bits =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const auto lane_sums = [&](__m256i x) {
      const __m256i lo = _mm256_and_si256(x, low);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low);
      return _mm256_sad_epu8(
          _mm256_add_epi8(_mm256_shuffle_epi8(nibble_bits, lo),
                          _mm256_shuffle_epi8(nibble_bits, hi)),
          _mm256_setzero_si256());
    };
    const __m256i f = lane_sums(_mm256_and_si256(toggle.v, fixed.v));
    const __m256i a = lane_sums(_mm256_and_si256(toggle.v, active.v));
    // [f0+f1, a0+a1 | f2+f3, a2+a3], then the two halves: {fixed, total}.
    const __m256i pairs = _mm256_add_epi64(_mm256_unpacklo_epi64(f, a),
                                           _mm256_unpackhi_epi64(f, a));
    const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(pairs),
                                      _mm256_extracti128_si256(pairs, 1));
    count.fixed += static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum));
    count.total += static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
  }
};

}  // namespace

EvalFn avx2_kernel(ToggleMode mode) noexcept {
  switch (mode) {
    case ToggleMode::kSkip:
      return &KernelAccess::eval<Avx2Block, ToggleMode::kSkip>;
    case ToggleMode::kRecord:
      return &KernelAccess::eval<Avx2Block, ToggleMode::kRecord>;
    case ToggleMode::kCount:
      return &KernelAccess::eval<Avx2Block, ToggleMode::kCount>;
  }
  return nullptr;
}

bool avx2_built_impl() noexcept { return true; }

}  // namespace polaris::sim::detail

#else  // !defined(__AVX2__)

namespace polaris::sim::detail {

EvalFn avx2_kernel(ToggleMode) noexcept { return nullptr; }
bool avx2_built_impl() noexcept { return false; }

}  // namespace polaris::sim::detail

#endif
