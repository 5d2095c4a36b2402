// Welch's t-test (paper Eq. 1) and the naive two-pass reference (Eq. 2).
#pragma once

#include <cstdint>
#include <span>

#include "tvla/moments.hpp"

namespace polaris::tvla {

/// TVLA pass/fail threshold: |t| > 4.5 with dof > 1000 gives p < 1e-5
/// ("99.999% confidence against the null hypothesis", Sec. II-A).
inline constexpr double kLeakageThreshold = 4.5;

struct WelchResult {
  double t = 0.0;
  double dof = 0.0;

  [[nodiscard]] bool leaky(double threshold = kLeakageThreshold) const {
    return t > threshold || t < -threshold;
  }
};

/// Eq. 1 from summary statistics (sample variances, i.e. n-1 denominator).
/// Degenerate inputs (any class empty, or both variances zero) give t = 0.
[[nodiscard]] WelchResult welch_t(double mean0, double var0, double n0,
                                  double mean1, double var1, double n1);

/// Eq. 1 from two one-pass accumulators (Eq. 3-4 pipeline).
[[nodiscard]] WelchResult welch_t(const MomentAccumulator& q0,
                                  const MomentAccumulator& q1);

/// Same, with an additive per-sample noise floor: means unchanged, both
/// class variances gain `noise_var` (TvlaConfig::noise_std_fj squared).
[[nodiscard]] WelchResult welch_t(const MomentAccumulator& q0,
                                  const MomentAccumulator& q1,
                                  double noise_var);

/// Same, from per-class counts and mean/S2 state (a campaign's multi-member
/// groups, tvla::CampaignMoments): sample variance S2/(n-1), 0 below two
/// samples, plus `noise_var`. Bit-identical to the accumulator overload on
/// accumulators with the same count, mean and S2.
[[nodiscard]] WelchResult welch_t(std::uint64_t n0, MeanS2 q0,
                                  std::uint64_t n1, MeanS2 q1,
                                  double noise_var);

/// Binary samples on a physical scale: x in {0, energy} per class, plus the
/// additive noise floor. Class means are energy*p and sample variances
/// energy^2 * n*p*(1-p)/(n-1) + noise_var. This is the single-member-group
/// fast path of the campaign (counts come from 64-lane popcounts).
[[nodiscard]] WelchResult welch_t_binary_energy(std::uint64_t n0,
                                                std::uint64_t ones0,
                                                std::uint64_t n1,
                                                std::uint64_t ones1,
                                                double energy,
                                                double noise_var);

/// Specialization for binary-valued samples x in {0, E}: only counts are
/// needed, so per-gate TVLA can run on popcounts of 64-lane toggle words.
/// The scale E cancels out of the statistic.
[[nodiscard]] WelchResult welch_t_binary(std::uint64_t n0, std::uint64_t ones0,
                                         std::uint64_t n1, std::uint64_t ones1);

/// Naive two-pass computation (mean sweep then Eq. 2 variance sweep).
/// Reference implementation for tests and for bench_ablation_moments.
[[nodiscard]] WelchResult welch_t_two_pass(std::span<const double> q0,
                                           std::span<const double> q1);

}  // namespace polaris::tvla
