// Random Forest (bagging + per-split feature subsampling).
#pragma once

#include <cstdint>

#include "ml/model.hpp"

namespace polaris::ml {

struct ForestConfig {
  std::size_t trees = 60;
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 2;
  /// 0 = sqrt(feature count), the usual default.
  std::size_t features_per_split = 0;
  std::uint64_t seed = 1;
  /// Split-search threads (TreeFitter). Execution only: never serialized,
  /// and the fit is bit-identical at every value.
  std::size_t lanes = 1;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  void fit(const Dataset& data) override;
  [[nodiscard]] double predict_margin(std::span<const double> x) const override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] const TreeEnsemble& ensemble() const override { return ensemble_; }
  [[nodiscard]] std::string name() const override { return "RandomForest"; }

  [[nodiscard]] ClassifierKind kind() const override {
    return ClassifierKind::kRandomForest;
  }
  void save(serialize::Writer& out) const override;
  [[nodiscard]] static RandomForest load(serialize::Reader& in);

 private:
  /// The class payload, for both directions (save and load).
  template <class Io, class Self>
  static void fields(Io& io, Self& self);

  ForestConfig config_;
  TreeEnsemble ensemble_;
};

}  // namespace polaris::ml
