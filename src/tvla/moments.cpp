#include "tvla/moments.hpp"

namespace polaris::tvla {

void MomentAccumulator::add(double x) noexcept {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double delta = x - mean_;
  const double delta_n = delta / static_cast<double>(n_);
  mean_ += delta_n;
  s2_ += delta * delta_n * n1;
}

void MomentAccumulator::merge(const MomentAccumulator& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  chan_merge(mean_, s2_, static_cast<double>(n_), other.mean_, other.s2_,
             static_cast<double>(other.n_));
  n_ += other.n_;
}

void CampaignMoments::ClassMoments::merge(std::uint64_t na,
                                          const ClassMoments& other,
                                          std::uint64_t nb) {
  if (nb == 0) return;
  if (na == 0) {
    *this = other;
    return;
  }
  const double a = static_cast<double>(na);
  const double b = static_cast<double>(nb);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    chan_merge(mean[i], s2[i], a, other.mean[i], other.s2[i], b);
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

double MomentAccumulator::variance_population() const noexcept {
  return n_ == 0 ? 0.0 : s2_ / static_cast<double>(n_);
}

double MomentAccumulator::variance_sample() const noexcept {
  return n_ < 2 ? 0.0 : s2_ / static_cast<double>(n_ - 1);
}

}  // namespace polaris::tvla
