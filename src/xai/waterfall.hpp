// SHAP waterfall data (paper Fig. 3): per-sample decomposition from the
// expected prediction E[f(x)] to the model output f(x), one bar per feature.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ml/model.hpp"

namespace polaris::xai {

struct WaterfallBar {
  std::string feature;
  double feature_value = 0.0;
  double phi = 0.0;
};

struct Waterfall {
  double expected_value = 0.0;  // E[f(x)], margin space
  double fx = 0.0;              // f(x), margin space
  /// Bars sorted by |phi| descending; the tail beyond `max_bars` is folded
  /// into `rest` (like the library's "sum of k other features" bar).
  std::vector<WaterfallBar> bars;
  double rest = 0.0;

  /// ASCII rendering of the plot.
  [[nodiscard]] std::string render() const;
};

/// Builds the waterfall for one sample from exact TreeSHAP attributions.
[[nodiscard]] Waterfall make_waterfall(const ml::Model& model,
                                       std::span<const double> x,
                                       std::span<const std::string> feature_names,
                                       std::size_t max_bars = 9);

}  // namespace polaris::xai
