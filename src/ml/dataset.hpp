// Training-data container for the {X_data, Y_data} sets Algorithm 1 builds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace polaris::ml {

class Dataset {
 public:
  Dataset() = default;
  /// Throws std::invalid_argument on a label count that differs from the
  /// row count, rows of unequal width, or a non-finite feature value.
  Dataset(std::vector<std::vector<double>> features, std::vector<int> labels);

  /// Throws std::invalid_argument on a row whose width differs from the
  /// first row's, or that holds a non-finite value.
  void add(std::vector<double> features, int label, double weight = 1.0);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] std::size_t feature_count() const {
    return rows_.empty() ? 0 : rows_[0].size();
  }
  [[nodiscard]] bool empty() const { return labels_.empty(); }

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return rows_[i];
  }
  [[nodiscard]] int label(std::size_t i) const { return labels_[i]; }
  [[nodiscard]] double weight(std::size_t i) const { return weights_[i]; }
  void set_weight(std::size_t i, double w) { weights_[i] = w; }

  [[nodiscard]] const std::vector<std::vector<double>>& rows() const {
    return rows_;
  }
  [[nodiscard]] const std::vector<int>& labels() const { return labels_; }
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

  /// Count of samples with label 1 / label 0.
  [[nodiscard]] std::size_t positives() const;
  [[nodiscard]] std::size_t negatives() const { return size() - positives(); }

  /// Sets weights so both classes carry equal total weight ("weighted
  /// training for XGBoost and AdaBoost", Sec. V-B).
  void apply_class_balance_weights();

  /// Deterministic shuffled split; returns {train, test}.
  [[nodiscard]] std::pair<Dataset, Dataset> split(double train_fraction,
                                                  std::uint64_t seed) const;

  /// Concatenate another dataset (feature counts must match).
  void append(const Dataset& other);

 private:
  std::vector<std::vector<double>> rows_;
  std::vector<int> labels_;
  std::vector<double> weights_;
};

}  // namespace polaris::ml
