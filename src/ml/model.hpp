// The POLARIS gate classifier: one type for every model option (Table III's
// Random Forest, XGBoost and AdaBoost, plus a single-CART baseline). Each
// kind is a weighted sum of CART trees, so a Model is its kind's
// hyper-parameters (a ModelConfig alternative) plus the fitted
// TreeEnsemble that prediction, TreeSHAP and the rule miner all read. It
// serializes through serialize::Writer/Reader, so a trained model can be
// bundled once and served from disk.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "ml/dataset.hpp"
#include "ml/tree.hpp"

namespace polaris::serialize {
class Writer;
class Reader;
}  // namespace polaris::serialize

namespace polaris::ml {

/// The model kinds, numbered as the CONF chunk stores them (never
/// renumber). A kind is also the index of its ModelConfig alternative.
enum class ModelKind {
  kRandomForest,
  kXgboost,
  kAdaBoost,      // the paper's pick (Table III)
  kDecisionTree,  // single-CART baseline (cheapest model to serve)
};

/// Random Forest: bagging plus per-split feature subsampling.
struct ForestConfig {
  std::size_t trees = 60;
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 2;
  /// 0 = sqrt(feature count), the usual default.
  std::size_t features_per_split = 0;
  std::uint64_t seed = 1;
};

/// Gradient-boosted trees with the XGBoost second-order objective (logistic
/// loss, Newton leaf weights, shrinkage, lambda regularization). Sample
/// weights scale gradients and hessians, which is the paper's "weighted
/// training" against theta_r class imbalance.
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
};

/// AdaBoost (discrete SAMME) over shallow CART trees: the model the paper
/// selects for POLARIS (Table III: best average leakage reduction).
struct AdaBoostConfig {
  std::size_t rounds = 120;
  std::size_t max_depth = 2;  // shallow trees, classic AdaBoost weak learner
  /// Learning rate on the stage weights (paper Sec. V-B: 0.01).
  double learning_rate = 0.5;
  std::size_t min_samples_leaf = 2;
  std::uint64_t seed = 1;
};

/// Single CART decision tree: the interpretable floor the ensembles must
/// beat, and the cheapest model to serve from a bundle.
struct DecisionTreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 2;
  std::uint64_t seed = 1;
};

/// Alternative i is the hyper-parameter struct of ModelKind i.
using ModelConfig =
    std::variant<ForestConfig, GbdtConfig, AdaBoostConfig, DecisionTreeConfig>;

/// "RandomForest", "XGBoost", "AdaBoost" or "DecisionTree".
[[nodiscard]] std::string to_string(ModelKind kind);
/// Parses user-facing model names ("adaboost", "forest"/"rf", "xgboost",
/// "tree"/"dt"; case-insensitive). Throws std::invalid_argument listing the
/// accepted spellings on anything else.
[[nodiscard]] ModelKind model_kind_from_string(const std::string& name);

class Model {
 public:
  /// `lanes` is the split-search thread count of fit() (TreeFitter). It is
  /// an execution knob only: never serialized, and the fit is bit-identical
  /// at every value.
  explicit Model(ModelConfig config = {}, std::size_t lanes = 1)
      : config_(config), lanes_(lanes) {}

  void fit(const Dataset& data);

  [[nodiscard]] ModelKind kind() const {
    return static_cast<ModelKind>(config_.index());
  }
  [[nodiscard]] std::string name() const { return to_string(kind()); }

  /// Raw additive score (margin space; what SHAP values decompose).
  [[nodiscard]] double predict_margin(std::span<const double> x) const {
    return ensemble_.margin(x);
  }
  /// Probability of class 1.
  [[nodiscard]] double predict_proba(std::span<const double> x) const {
    return ensemble_.probability(x);
  }
  /// Fitted additive-tree view (valid after fit()).
  [[nodiscard]] const TreeEnsemble& ensemble() const { return ensemble_; }

  /// The MODL payload: the kind's on-disk tag, the payload version, the
  /// kind's hyper-parameters, then the ensemble.
  void save(serialize::Writer& out) const;
  /// Reads a MODL payload. Throws std::runtime_error on an unknown tag or
  /// a payload version this build does not know.
  [[nodiscard]] static Model load(serialize::Reader& in);

 private:
  ModelConfig config_;
  TreeEnsemble ensemble_;
  std::size_t lanes_;
};

}  // namespace polaris::ml
