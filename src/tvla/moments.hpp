// One-pass mean and variance computation.
//
// Paper Sec. II-A: "TVLA trace collection is slow due to repeated mean and
// variance calculations. To accelerate it, [Schneider-Moradi 2015] proposed
// an efficient one-pass method for raw and central moments computation
// during trace acquisition", Eq. 3:  M1' = M1 + delta/n, and Eq. 4:
// mu = M1, s^2 = CM2 = M2 - M1^2.
//
// We implement the numerically stable incremental update of the mean and
// the centred sum of squares S2 = sum (x - mean)^2 (the d = 2 case of the
// Pebay formulas, the family the Schneider-Moradi paper derives), plus a
// pairwise merge so state can be combined across batches. First-order
// TVLA's Welch's t reads only each class's count, mean and S2, so no
// higher centred sum is kept. The naive two-pass reference (Eq. 2) lives
// in welch.hpp for tests and the ablation bench. Campaigns keep the same
// state per group and class (CampaignMoments below, updated by
// power::SamplePlan's readout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace polaris::tvla {

/// Chan's pairwise merge step: folds the mean and S2 of `b` samples into
/// those of `a` samples (both nonzero). Every merge of mean/S2 state takes
/// this step, so merged state does not depend on which container held it.
inline void chan_merge(double& mean, double& s2, double a, double mean_b,
                       double s2_b, double b) noexcept {
  const double n = a + b;
  const double delta = mean_b - mean;
  s2 = s2 + s2_b + delta * delta * a * b / n;
  mean += delta * b / n;
}

class MomentAccumulator {
 public:
  void add(double x) noexcept;

  /// Combine with another accumulator (Chan's pairwise update).
  void merge(const MomentAccumulator& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Population variance CM2 = S2 / n (paper Eq. 4) and unbiased sample
  /// variance S2 / (n - 1).
  [[nodiscard]] double variance_population() const noexcept;
  [[nodiscard]] double variance_sample() const noexcept;

  /// The centred sum of squares S2 = sum (x-mean)^2 - the exact internal
  /// state.
  [[nodiscard]] double sum2() const noexcept { return s2_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double s2_ = 0.0;  // sum (x-mean)^2
};

/// One class's running mean and centred sum of squares
/// S2 = sum (x - mean)^2 over a multi-member group's samples: with the
/// class count, everything Welch's t (Eq. 1) reads.
struct MeanS2 {
  double mean = 0.0;
  double s2 = 0.0;
};

/// Mergeable per-campaign statistics block - the unit of state a trace
/// shard accumulates and engine::Scheduler merges in ascending shard
/// order (engine/scheduler.hpp).
///
/// Two representations coexist, mirroring the campaign fast paths:
///  * single-member gate groups: samples are binary {0, E}, so only toggle
///    counts per class are kept (exact integer merge);
///  * multi-member groups: real-valued group-energy sums per trace, kept as
///    one MeanS2 per class in structure-of-arrays form, which the sampling
///    readout (power::SamplePlan::sample) updates in place tile by tile.
/// Every group takes one sample per lane, so each class's count is the
/// class's lane total, stored once (n_fixed()/n_random()).
class CampaignMoments {
 public:
  CampaignMoments() = default;
  CampaignMoments(std::size_t group_count, std::size_t multi_group_count)
      : single_ones_fixed_(group_count, 0),
        single_ones_random_(group_count, 0),
        fixed_(multi_group_count),
        random_(multi_group_count) {}

  /// Per sample step: how many lanes were in each class.
  void add_lane_counts(std::uint64_t fixed, std::uint64_t random) noexcept {
    n_fixed_ += fixed;
    n_random_ += random;
  }
  /// Single-member group: toggle counts observed in each class.
  void add_single_ones(std::size_t group, std::uint64_t fixed,
                       std::uint64_t random) noexcept {
    single_ones_fixed_[group] += fixed;
    single_ones_random_[group] += random;
  }

  /// Combines another shard's statistics. Integer counters merge exactly;
  /// each class's multi state takes chan_merge() with the two class
  /// counts, so calling merge() in a fixed shard order gives
  /// bit-reproducible results.
  void merge(const CampaignMoments& other);

  [[nodiscard]] std::uint64_t n_fixed() const noexcept { return n_fixed_; }
  [[nodiscard]] std::uint64_t n_random() const noexcept { return n_random_; }
  [[nodiscard]] std::uint64_t single_ones_fixed(std::size_t group) const noexcept {
    return single_ones_fixed_[group];
  }
  [[nodiscard]] std::uint64_t single_ones_random(std::size_t group) const noexcept {
    return single_ones_random_[group];
  }
  /// Multi group i's state in the fixed (random) class, over n_fixed()
  /// (n_random()) samples.
  [[nodiscard]] MeanS2 multi_fixed(std::size_t i) const noexcept {
    return fixed_.at(i);
  }
  [[nodiscard]] MeanS2 multi_random(std::size_t i) const noexcept {
    return random_.at(i);
  }

  [[nodiscard]] std::size_t group_count() const noexcept {
    return single_ones_fixed_.size();
  }
  [[nodiscard]] std::size_t multi_group_count() const noexcept {
    return fixed_.mean.size();
  }

  /// Restores one multi-member group's state from serialized form
  /// (tvla/moments_io.hpp). Counts and single-group toggles are restorable
  /// through add_lane_counts/add_single_ones on a fresh object.
  void set_multi(std::size_t i, MeanS2 fixed, MeanS2 random) noexcept {
    fixed_.set(i, fixed);
    random_.set(i, random);
  }

  /// One class's multi-group means and S2 sums, dense by multi index: the
  /// arrays the sampling readout updates in place.
  [[nodiscard]] double* multi_mean_data(bool fixed_class) noexcept {
    return (fixed_class ? fixed_ : random_).mean.data();
  }
  [[nodiscard]] double* multi_s2_data(bool fixed_class) noexcept {
    return (fixed_class ? fixed_ : random_).s2.data();
  }

 private:
  /// One class's multi-group state, structure-of-arrays.
  struct ClassMoments {
    explicit ClassMoments(std::size_t groups = 0)
        : mean(groups, 0.0), s2(groups, 0.0) {}
    [[nodiscard]] MeanS2 at(std::size_t i) const noexcept {
      return {mean[i], s2[i]};
    }
    void set(std::size_t i, MeanS2 value) noexcept {
      mean[i] = value.mean;
      s2[i] = value.s2;
    }
    /// Chan merge of `other` (nb samples per group) into this (na).
    void merge(std::uint64_t na, const ClassMoments& other, std::uint64_t nb);

    std::vector<double> mean, s2;
  };

  std::uint64_t n_fixed_ = 0, n_random_ = 0;
  std::vector<std::uint64_t> single_ones_fixed_, single_ones_random_;
  ClassMoments fixed_, random_;
};

}  // namespace polaris::tvla
