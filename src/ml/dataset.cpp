#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace polaris::ml {

namespace {

/// Every row has the first row's width and only finite values: the split
/// scan reads every cell of every row, and its sorts need a strict weak
/// order, which NaN breaks.
void check_row(std::span<const double> row, std::size_t width,
               const char* where) {
  if (row.size() != width) {
    throw std::invalid_argument(std::string(where) +
                                ": feature width mismatch (" +
                                std::to_string(row.size()) + ", expected " +
                                std::to_string(width) + ")");
  }
  for (const double v : row) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument(std::string(where) +
                                  ": non-finite feature value");
    }
  }
}

}  // namespace

Dataset::Dataset(std::vector<std::vector<double>> features,
                 std::vector<int> labels)
    : rows_(std::move(features)), labels_(std::move(labels)) {
  if (rows_.size() != labels_.size()) {
    throw std::invalid_argument("Dataset: feature/label size mismatch");
  }
  for (const auto& row : rows_) check_row(row, rows_[0].size(), "Dataset");
  weights_.assign(labels_.size(), 1.0);
}

void Dataset::add(std::vector<double> features, int label, double weight) {
  check_row(features, rows_.empty() ? features.size() : rows_[0].size(),
            "Dataset::add");
  rows_.push_back(std::move(features));
  labels_.push_back(label);
  weights_.push_back(weight);
}

std::size_t Dataset::positives() const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), 1));
}

void Dataset::apply_class_balance_weights() {
  const double pos = static_cast<double>(positives());
  const double neg = static_cast<double>(size()) - pos;
  if (pos == 0.0 || neg == 0.0) return;  // single class: nothing to balance
  const double half = static_cast<double>(size()) / 2.0;
  const double w_pos = half / pos;
  const double w_neg = half / neg;
  for (std::size_t i = 0; i < size(); ++i) {
    weights_[i] = labels_[i] == 1 ? w_pos : w_neg;
  }
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           std::uint64_t seed) const {
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  const auto cut = static_cast<std::size_t>(
      train_fraction * static_cast<double>(order.size()));
  Dataset train, test;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t src = order[i];
    (i < cut ? train : test).add(rows_[src], labels_[src], weights_[src]);
  }
  return {std::move(train), std::move(test)};
}

void Dataset::append(const Dataset& other) {
  if (!empty() && !other.empty() &&
      feature_count() != other.feature_count()) {
    throw std::invalid_argument("Dataset::append: feature width mismatch");
  }
  for (std::size_t i = 0; i < other.size(); ++i) {
    add(other.rows_[i], other.labels_[i], other.weights_[i]);
  }
}

}  // namespace polaris::ml
