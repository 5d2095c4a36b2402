// AVX2 instantiations of the shared kernel template (compiled_kernels.hpp):
// the 4-word block, with and without toggle recording.
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
};

}  // namespace

EvalFn avx2_kernel(bool record_toggles) noexcept {
  return record_toggles ? &KernelAccess::eval<Avx2Block, true>
                        : &KernelAccess::eval<Avx2Block, false>;
}

bool avx2_built_impl() noexcept { return true; }

}  // namespace polaris::sim::detail

#else  // !defined(__AVX2__)

namespace polaris::sim::detail {

EvalFn avx2_kernel(bool) noexcept { return nullptr; }
bool avx2_built_impl() noexcept { return false; }

}  // namespace polaris::sim::detail

#endif
