// Gradient-boosted decision trees with the XGBoost second-order objective
// (logistic loss, Newton leaf weights, shrinkage, lambda regularization).
// Sample weights from Dataset scale gradients/hessians, implementing the
// "weighted training" the paper uses to counter theta_r class imbalance.
#pragma once

#include <cstdint>

#include "ml/model.hpp"

namespace polaris::ml {

struct GbdtConfig {
  std::size_t rounds = 200;
  std::size_t max_depth = 4;
  /// Shrinkage / learning rate alpha (paper Sec. V-B: 0.01 for XGBoost and
  /// AdaBoost). With a rate this small, `rounds` must be sized accordingly.
  double learning_rate = 0.1;
  double lambda = 1.0;
  double gamma = 0.0;
  std::size_t min_samples_leaf = 2;
  std::uint64_t seed = 1;
  /// Split-search threads (TreeFitter). Execution only: never serialized,
  /// and the fit is bit-identical at every value.
  std::size_t lanes = 1;
};

class Gbdt final : public Classifier {
 public:
  explicit Gbdt(GbdtConfig config = {}) : config_(config) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double predict_margin(std::span<const double> x) const override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] const TreeEnsemble& ensemble() const override { return ensemble_; }
  [[nodiscard]] std::string name() const override { return "XGBoost"; }

  [[nodiscard]] ClassifierKind kind() const override {
    return ClassifierKind::kGbdt;
  }
  void save(serialize::Writer& out) const override;
  [[nodiscard]] static Gbdt load(serialize::Reader& in);

 private:
  /// The class payload, for both directions (save and load).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

  GbdtConfig config_;
  TreeEnsemble ensemble_;
};

}  // namespace polaris::ml
