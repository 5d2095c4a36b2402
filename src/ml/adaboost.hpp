// AdaBoost (discrete SAMME) over shallow CART trees - the model the paper
// selects for POLARIS (Table III: best average leakage reduction).
#pragma once

#include <cstdint>

#include "ml/model.hpp"

namespace polaris::ml {

struct AdaBoostConfig {
  std::size_t rounds = 120;
  std::size_t max_depth = 2;  // shallow trees, classic AdaBoost weak learner
  /// Learning rate on the stage weights (paper Sec. V-B: 0.01).
  double learning_rate = 0.5;
  std::size_t min_samples_leaf = 2;
  std::uint64_t seed = 1;
  /// Split-search threads (TreeFitter). Execution only: never serialized,
  /// and the fit is bit-identical at every value.
  std::size_t lanes = 1;
};

class AdaBoost final : public Classifier {
 public:
  explicit AdaBoost(AdaBoostConfig config = {}) : config_(config) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double predict_margin(std::span<const double> x) const override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] const TreeEnsemble& ensemble() const override { return ensemble_; }
  [[nodiscard]] std::string name() const override { return "AdaBoost"; }

  [[nodiscard]] ClassifierKind kind() const override {
    return ClassifierKind::kAdaBoost;
  }
  void save(serialize::Writer& out) const override;
  [[nodiscard]] static AdaBoost load(serialize::Reader& in);

 private:
  /// The class payload, for both directions (save and load).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

  AdaBoostConfig config_;
  TreeEnsemble ensemble_;
};

}  // namespace polaris::ml
