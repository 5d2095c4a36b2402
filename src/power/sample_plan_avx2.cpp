// AVX2 instantiation of the tiled multi-group readout
// (sample_plan_kernels.hpp). CMake builds this unit with -mavx2 and
// -ffp-contract=off; everything else in src/power stays at the base ISA,
// and SamplePlan::read_multis calls in here only after the sim::simd policy
// allows AVX2. Without the flag the unit compiles a stub that reports "not
// built".
#include "power/sample_plan_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace polaris::power::detail {

namespace {

static_assert(kTileGroups % 4 == 0, "Avx2Tile holds whole vectors");
constexpr std::size_t kVectors = kTileGroups / 4;

/// A tile of groups as 4-double vectors.
struct Avx2Tile {
  __m256d v[kVectors];

  static Avx2Tile load(const double* p) {
    Avx2Tile t;
    for (std::size_t i = 0; i < kVectors; ++i) {
      t.v[i] = _mm256_loadu_pd(p + 4 * i);
    }
    return t;
  }
  void store(double* p) const {
    for (std::size_t i = 0; i < kVectors; ++i) {
      _mm256_storeu_pd(p + 4 * i, v[i]);
    }
  }
  static Avx2Tile broadcast(double x) {
    Avx2Tile t;
    for (std::size_t i = 0; i < kVectors; ++i) t.v[i] = _mm256_set1_pd(x);
    return t;
  }
  static Avx2Tile take(double* p) {
    const Avx2Tile t = load(p);
    for (std::size_t i = 0; i < kVectors; ++i) {
      _mm256_storeu_pd(p + 4 * i, _mm256_setzero_pd());
    }
    return t;
  }
  friend Avx2Tile operator+(Avx2Tile a, const Avx2Tile& b) {
    for (std::size_t i = 0; i < kVectors; ++i) {
      a.v[i] = _mm256_add_pd(a.v[i], b.v[i]);
    }
    return a;
  }
  friend Avx2Tile operator-(Avx2Tile a, const Avx2Tile& b) {
    for (std::size_t i = 0; i < kVectors; ++i) {
      a.v[i] = _mm256_sub_pd(a.v[i], b.v[i]);
    }
    return a;
  }
  friend Avx2Tile operator*(Avx2Tile a, const Avx2Tile& b) {
    for (std::size_t i = 0; i < kVectors; ++i) {
      a.v[i] = _mm256_mul_pd(a.v[i], b.v[i]);
    }
    return a;
  }
  friend Avx2Tile operator/(Avx2Tile a, const Avx2Tile& b) {
    for (std::size_t i = 0; i < kVectors; ++i) {
      a.v[i] = _mm256_div_pd(a.v[i], b.v[i]);
    }
    return a;
  }

  /// Branch-free masked adds, four lanes per vector: a lane whose toggle
  /// bit is clear adds +0.0, which changes no bit of a sum that starts at
  /// +0.0 and only ever gains positive energies. A group's 64 lane sums
  /// build up in registers, 32 lanes at a time, over its members in
  /// order, and land in the group-major tile; a 4x4-block transpose then
  /// moves them into the lane-major tile the push reads.
  static void sum_lanes(const MultiBlock& block, std::size_t g0,
                        std::size_t w) {
    constexpr std::size_t kChunks = 8;  // vectors of lane sums in flight
    double* sums = block.scratch + kTileGroups * kTileLanes;
    const std::size_t end =
        block.groups - g0 < kTileGroups ? block.groups : g0 + kTileGroups;
    // Element j of chunk c holds lane 4c + j (of the 32 lanes in flight):
    // shifting left by 63 - 4c - j puts that lane's bit into the sign bit,
    // and a signed compare against zero spreads it over the element.
    __m256i to_sign[kChunks];
    for (std::size_t c = 0; c < kChunks; ++c) {
      const auto top = static_cast<long long>(63 - 4 * c);
      to_sign[c] = _mm256_setr_epi64x(top, top - 1, top - 2, top - 3);
    }
    const __m256i zero_bits = _mm256_setzero_si256();
    for (std::size_t g = g0; g < end; ++g) {
      double* row = sums + (g - g0) * kTileLanes;
      for (std::size_t half = 0; half < kTileLanes; half += 4 * kChunks) {
        __m256d acc[kChunks];
        for (std::size_t c = 0; c < kChunks; ++c) {
          acc[c] = _mm256_setzero_pd();
        }
        for (std::uint32_t k = block.member_begin[g];
             k < block.member_begin[g + 1]; ++k) {
          const SamplePlan::MultiOp& op = block.members[k];
          const std::uint64_t bits =
              block.toggle_words[op.toggle_slot * block.lane_words + w] >>
              half;
          const __m256d energy = _mm256_set1_pd(op.energy);
          const __m256i lanes =
              _mm256_set1_epi64x(static_cast<long long>(bits));
          for (std::size_t c = 0; c < kChunks; ++c) {
            const __m256i set = _mm256_cmpgt_epi64(
                zero_bits, _mm256_sllv_epi64(lanes, to_sign[c]));
            acc[c] = _mm256_add_pd(
                acc[c], _mm256_and_pd(_mm256_castsi256_pd(set), energy));
          }
        }
        for (std::size_t c = 0; c < kChunks; ++c) {
          _mm256_storeu_pd(row + half + 4 * c, acc[c]);
        }
      }
    }
    // Rows of a partial tile past `end` hold stale sums of an earlier
    // tile; they only reach padding groups, whose state is never stored.
    double* values = block.scratch;
    for (std::size_t q = 0; q < kTileGroups; q += 4) {
      for (std::size_t lane = 0; lane < kTileLanes; lane += 4) {
        const double* in = sums + q * kTileLanes + lane;
        const __m256d r0 = _mm256_loadu_pd(in);                   // group q
        const __m256d r1 = _mm256_loadu_pd(in + kTileLanes);      // q + 1
        const __m256d r2 = _mm256_loadu_pd(in + 2 * kTileLanes);  // q + 2
        const __m256d r3 = _mm256_loadu_pd(in + 3 * kTileLanes);  // q + 3
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // a0 b0 a2 b2
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // a1 b1 a3 b3
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);  // c0 d0 c2 d2
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);  // c1 d1 c3 d3
        double* out = values + lane * kTileGroups + q;
        _mm256_storeu_pd(out, _mm256_permute2f128_pd(t0, t2, 0x20));
        _mm256_storeu_pd(out + kTileGroups,
                         _mm256_permute2f128_pd(t1, t3, 0x20));
        _mm256_storeu_pd(out + 2 * kTileGroups,
                         _mm256_permute2f128_pd(t0, t2, 0x31));
        _mm256_storeu_pd(out + 3 * kTileGroups,
                         _mm256_permute2f128_pd(t1, t3, 0x31));
      }
    }
  }
};

void read_multis_avx2(const MultiBlock& block) {
  read_multis_tiled<Avx2Tile>(block);
}

}  // namespace

MultiReadoutFn avx2_multi_readout() noexcept { return &read_multis_avx2; }

}  // namespace polaris::power::detail

#else  // !defined(__AVX2__)

namespace polaris::power::detail {

MultiReadoutFn avx2_multi_readout() noexcept { return nullptr; }

}  // namespace polaris::power::detail

#endif
