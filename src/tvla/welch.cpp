#include "tvla/welch.hpp"

#include <cmath>

namespace polaris::tvla {

WelchResult welch_t(double mean0, double var0, double n0, double mean1,
                    double var1, double n1) {
  WelchResult result;
  if (n0 < 2.0 || n1 < 2.0) return result;
  const double se0 = var0 / n0;
  const double se1 = var1 / n1;
  const double se = se0 + se1;
  if (se <= 0.0) return result;
  result.t = (mean0 - mean1) / std::sqrt(se);
  const double denom = se0 * se0 / (n0 - 1.0) + se1 * se1 / (n1 - 1.0);
  result.dof = denom > 0.0 ? se * se / denom : 0.0;
  return result;
}

WelchResult welch_t(const MomentAccumulator& q0, const MomentAccumulator& q1) {
  return welch_t(q0.mean(), q0.variance_sample(), static_cast<double>(q0.count()),
                 q1.mean(), q1.variance_sample(), static_cast<double>(q1.count()));
}

WelchResult welch_t(const MomentAccumulator& q0, const MomentAccumulator& q1,
                    double noise_var) {
  return welch_t(q0.count(), {q0.mean(), q0.sum2()}, q1.count(),
                 {q1.mean(), q1.sum2()}, noise_var);
}

WelchResult welch_t(std::uint64_t n0, MeanS2 q0, std::uint64_t n1, MeanS2 q1,
                    double noise_var) {
  // MomentAccumulator::variance_sample() on the same state.
  const auto variance = [](std::uint64_t n, double s2) {
    return n < 2 ? 0.0 : s2 / static_cast<double>(n - 1);
  };
  return welch_t(q0.mean, variance(n0, q0.s2) + noise_var,
                 static_cast<double>(n0), q1.mean,
                 variance(n1, q1.s2) + noise_var, static_cast<double>(n1));
}

WelchResult welch_t_binary_energy(std::uint64_t n0, std::uint64_t ones0,
                                  std::uint64_t n1, std::uint64_t ones1,
                                  double energy, double noise_var) {
  if (n0 < 2 || n1 < 2) return {};
  const double dn0 = static_cast<double>(n0);
  const double dn1 = static_cast<double>(n1);
  const double p0 = static_cast<double>(ones0) / dn0;
  const double p1 = static_cast<double>(ones1) / dn1;
  const double v0 = dn0 * p0 * (1.0 - p0) / (dn0 - 1.0);
  const double v1 = dn1 * p1 * (1.0 - p1) / (dn1 - 1.0);
  return welch_t(energy * p0, energy * energy * v0 + noise_var, dn0,
                 energy * p1, energy * energy * v1 + noise_var, dn1);
}

WelchResult welch_t_binary(std::uint64_t n0, std::uint64_t ones0,
                           std::uint64_t n1, std::uint64_t ones1) {
  if (n0 < 2 || n1 < 2) return {};
  const double dn0 = static_cast<double>(n0);
  const double dn1 = static_cast<double>(n1);
  const double m0 = static_cast<double>(ones0) / dn0;
  const double m1 = static_cast<double>(ones1) / dn1;
  // For x in {0,1}: sum x^2 = sum x, so the unbiased sample variance is
  // (ones - n*m^2) / (n-1) = n*m*(1-m) / (n-1).
  const double v0 = dn0 * m0 * (1.0 - m0) / (dn0 - 1.0);
  const double v1 = dn1 * m1 * (1.0 - m1) / (dn1 - 1.0);
  return welch_t(m0, v0, dn0, m1, v1, dn1);
}

WelchResult welch_t_two_pass(std::span<const double> q0,
                             std::span<const double> q1) {
  const auto two_pass = [](std::span<const double> q, double& mean, double& var) {
    mean = 0.0;
    for (const double x : q) mean += x;
    mean /= static_cast<double>(q.size());
    double sum_sq = 0.0;
    for (const double x : q) sum_sq += (x - mean) * (x - mean);  // Eq. 2
    var = q.size() < 2 ? 0.0 : sum_sq / static_cast<double>(q.size() - 1);
  };
  if (q0.size() < 2 || q1.size() < 2) return {};
  double m0 = 0.0, v0 = 0.0, m1 = 0.0, v1 = 0.0;
  two_pass(q0, m0, v0);
  two_pass(q1, m1, v1);
  return welch_t(m0, v0, static_cast<double>(q0.size()), m1, v1,
                 static_cast<double>(q1.size()));
}

}  // namespace polaris::tvla
