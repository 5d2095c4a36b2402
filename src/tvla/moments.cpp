#include "tvla/moments.hpp"

#include <cmath>

namespace polaris::tvla {

void MomentAccumulator::add(double x) noexcept {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  s4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * s2_ -
         4.0 * delta_n * s3_;
  s3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * s2_;
  s2_ += term1;
}

void MomentAccumulator::merge(const MomentAccumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta3 * delta;

  const double s4 = s4_ + other.s4_ +
                    delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
                    6.0 * delta2 * (na * na * other.s2_ + nb * nb * s2_) / (n * n) +
                    4.0 * delta * (na * other.s3_ - nb * s3_) / n;
  const double s3 = s3_ + other.s3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.s2_ - nb * s2_) / n;
  const double s2 = s2_ + other.s2_ + delta2 * na * nb / n;

  mean_ += delta * nb / n;
  s2_ = s2;
  s3_ = s3;
  s4_ = s4;
  n_ = static_cast<std::size_t>(n);
}

void CampaignMoments::ClassMoments::merge(std::uint64_t na,
                                          const ClassMoments& other,
                                          std::uint64_t nb) {
  if (nb == 0) return;
  if (na == 0) {
    *this = other;
    return;
  }
  // MomentAccumulator::merge's mean and S2 steps, in the same order.
  const double a = static_cast<double>(na);
  const double b = static_cast<double>(nb);
  const double n = a + b;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double delta = other.mean[i] - mean[i];
    const double delta2 = delta * delta;
    s2[i] = s2[i] + other.s2[i] + delta2 * a * b / n;
    mean[i] += delta * b / n;
  }
}

void CampaignMoments::merge(const CampaignMoments& other) {
  fixed_.merge(n_fixed_, other.fixed_, other.n_fixed_);
  random_.merge(n_random_, other.random_, other.n_random_);
  n_fixed_ += other.n_fixed_;
  n_random_ += other.n_random_;
  for (std::size_t g = 0; g < single_ones_fixed_.size(); ++g) {
    single_ones_fixed_[g] += other.single_ones_fixed_[g];
    single_ones_random_[g] += other.single_ones_random_[g];
  }
}

double MomentAccumulator::central_moment(int d) const noexcept {
  if (n_ == 0) return 0.0;
  const double n = static_cast<double>(n_);
  switch (d) {
    case 1: return 0.0;  // by definition of centering
    case 2: return s2_ / n;
    case 3: return s3_ / n;
    case 4: return s4_ / n;
    default: return 0.0;
  }
}

double MomentAccumulator::variance_population() const noexcept {
  return central_moment(2);
}

double MomentAccumulator::variance_sample() const noexcept {
  return n_ < 2 ? 0.0 : s2_ / static_cast<double>(n_ - 1);
}

double MomentAccumulator::skewness() const noexcept {
  const double v = variance_population();
  if (v <= 0.0) return 0.0;
  return central_moment(3) / std::pow(v, 1.5);
}

double MomentAccumulator::kurtosis() const noexcept {
  const double v = variance_population();
  if (v <= 0.0) return 0.0;
  return central_moment(4) / (v * v);
}

}  // namespace polaris::tvla
