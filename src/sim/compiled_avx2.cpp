// AVX2 instantiations of the shared kernel template (compiled_kernels.hpp).
//
// This and power/sample_plan_avx2.cpp are the only translation units built
// with -mavx2 (CMake sets the flag per-source), so __m256i codegen never
// leaks into code that runs before the CPUID dispatch check. On builds
// without AVX2 support the stubs below report "not built" and every
// dispatch falls back to the portable table.
#include "sim/compiled_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace polaris::sim::detail {

namespace {

/// V 256-bit vectors = 4*V lane words. V=1 covers the default 4-word
/// block (256 traces); V=2 the widest 8-word block (512 traces).
template <int V>
struct Avx2Block {
  static constexpr std::size_t kWords = static_cast<std::size_t>(V) * 4;
  __m256i v[V];

  static Avx2Block load(const std::uint64_t* p) noexcept {
    Avx2Block b;
    for (int i = 0; i < V; ++i) {
      b.v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p) + i);
    }
    return b;
  }
  void store(std::uint64_t* p) const noexcept {
    for (int i = 0; i < V; ++i) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p) + i, v[i]);
    }
  }
  static Avx2Block zeros() noexcept {
    Avx2Block b;
    for (int i = 0; i < V; ++i) b.v[i] = _mm256_setzero_si256();
    return b;
  }
  static Avx2Block ones() noexcept {
    Avx2Block b;
    for (int i = 0; i < V; ++i) b.v[i] = _mm256_set1_epi64x(-1);
    return b;
  }
  friend Avx2Block operator&(Avx2Block a, Avx2Block b) noexcept {
    for (int i = 0; i < V; ++i) a.v[i] = _mm256_and_si256(a.v[i], b.v[i]);
    return a;
  }
  friend Avx2Block operator|(Avx2Block a, Avx2Block b) noexcept {
    for (int i = 0; i < V; ++i) a.v[i] = _mm256_or_si256(a.v[i], b.v[i]);
    return a;
  }
  friend Avx2Block operator^(Avx2Block a, Avx2Block b) noexcept {
    for (int i = 0; i < V; ++i) a.v[i] = _mm256_xor_si256(a.v[i], b.v[i]);
    return a;
  }
  friend Avx2Block operator~(Avx2Block a) noexcept {
    const __m256i all = _mm256_set1_epi64x(-1);
    for (int i = 0; i < V; ++i) a.v[i] = _mm256_xor_si256(a.v[i], all);
    return a;
  }
};

}  // namespace

EvalFn avx2_kernel(std::size_t lane_words, bool record_toggles) noexcept {
  if (record_toggles) {
    switch (lane_words) {
      case 4: return &KernelAccess::eval<Avx2Block<1>, true>;
      case 8: return &KernelAccess::eval<Avx2Block<2>, true>;
      default: return nullptr;  // sub-vector widths stay portable
    }
  }
  switch (lane_words) {
    case 4: return &KernelAccess::eval<Avx2Block<1>, false>;
    case 8: return &KernelAccess::eval<Avx2Block<2>, false>;
    default: return nullptr;
  }
}

bool avx2_built_impl() noexcept { return true; }

}  // namespace polaris::sim::detail

#else  // !defined(__AVX2__)

namespace polaris::sim::detail {

EvalFn avx2_kernel(std::size_t, bool) noexcept { return nullptr; }
bool avx2_built_impl() noexcept { return false; }

}  // namespace polaris::sim::detail

#endif
