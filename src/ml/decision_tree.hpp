// Single CART decision tree - the interpretable baseline classifier (the
// paper's Table III compares ensemble models; a lone tree is the floor the
// ensembles must beat, and the cheapest model to serve from a bundle).
#pragma once

#include <cstdint>

#include "ml/model.hpp"

namespace polaris::ml {

struct DecisionTreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 2;
  std::uint64_t seed = 1;
  /// Split-search threads (TreeFitter). Execution only: never serialized,
  /// and the fit is bit-identical at every value.
  std::size_t lanes = 1;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {}) : config_(config) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double predict_margin(std::span<const double> x) const override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] const TreeEnsemble& ensemble() const override { return ensemble_; }
  [[nodiscard]] std::string name() const override { return "DecisionTree"; }

  [[nodiscard]] ClassifierKind kind() const override {
    return ClassifierKind::kDecisionTree;
  }
  void save(serialize::Writer& out) const override;
  [[nodiscard]] static DecisionTree load(serialize::Reader& in);

 private:
  /// The class payload, for both directions (save and load).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

  DecisionTreeConfig config_;
  TreeEnsemble ensemble_;
};

}  // namespace polaris::ml
