// Binary-classification metrics for model evaluation and the ablations.
#pragma once

#include <span>

#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace polaris::ml {

struct Metrics {
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double auc = 0.5;  // ROC AUC over predicted probabilities
};

[[nodiscard]] Metrics evaluate(const Model& model, const Dataset& data);

/// AUC from raw (score, label) pairs; ties share rank (trapezoid-exact).
[[nodiscard]] double roc_auc(std::span<const double> scores,
                             std::span<const int> labels);

}  // namespace polaris::ml
