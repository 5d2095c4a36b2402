// CART decision trees and the shared tree-ensemble representation.
//
// All three POLARIS models (Random Forest, XGBoost-style GBDT, AdaBoost;
// Table III) reduce to weighted sums of binary decision trees over the
// structural feature vector, which is also exactly what the exact TreeSHAP
// algorithm consumes. Node `cover` (total training weight that reached the
// node) is retained for SHAP's expected-value traversal.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace polaris::ml {

struct TreeNode {
  std::int32_t feature = -1;   // -1 for leaves
  double threshold = 0.0;      // go left if x[feature] <= threshold
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;          // leaf output (probability or margin term)
  double cover = 0.0;          // training weight through this node

  [[nodiscard]] bool is_leaf() const { return feature < 0; }
};

struct Tree {
  std::vector<TreeNode> nodes;  // nodes[0] is the root

  [[nodiscard]] double predict(std::span<const double> x) const;
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::size_t leaf_count() const;
};

/// Weighted additive ensemble: margin(x) = base + sum_t weight_t * tree_t(x).
/// The link maps margin to probability.
struct TreeEnsemble {
  enum class Link { kIdentity, kLogistic };

  struct WeightedTree {
    Tree tree;
    double weight = 1.0;
  };

  std::vector<WeightedTree> trees;
  double base = 0.0;
  Link link = Link::kIdentity;

  [[nodiscard]] double margin(std::span<const double> x) const;
  [[nodiscard]] double probability(std::span<const double> x) const;
};

/// CART configuration.
struct TreeConfig {
  std::size_t max_depth = 6;
  std::size_t min_samples_leaf = 2;
  /// 0 = consider all features at each split; otherwise sample this many.
  std::size_t features_per_split = 0;
  std::uint64_t seed = 1;
};

/// Second-order regression tree config (XGBoost objective): leaf value =
/// -sum(g)/(sum(h) + lambda), split gain per the standard formula with
/// regularization lambda and minimum gain gamma.
struct BoostTreeConfig {
  std::size_t max_depth = 4;
  double lambda = 1.0;
  double gamma = 0.0;
  std::size_t min_samples_leaf = 2;
};

/// Fits the trees of one model fit. Construction builds the dataset's bin
/// matrix (each feature's sorted distinct values and a one-byte bin per
/// row), which every tree reuses, and allocates the scan scratch once.
/// A node's candidate features fan out over up to `lanes` threads of the
/// shared pool; the fitted trees are bit-identical at every lane count
/// (DESIGN.md "Model fitting"). Keeps a reference to `data`: its features
/// must not change while the fitter lives, its weights may.
class TreeFitter {
 public:
  explicit TreeFitter(const Dataset& data, std::size_t lanes = 1);
  ~TreeFitter();
  TreeFitter(const TreeFitter&) = delete;
  TreeFitter& operator=(const TreeFitter&) = delete;

  /// Weighted-Gini classification tree; leaf value = weighted positive
  /// fraction. `indices` selects (with multiplicity) the training rows.
  [[nodiscard]] Tree classification_tree(std::span<const std::size_t> indices,
                                         const TreeConfig& config);
  /// Regression tree on per-row gradient/hessian pairs over every row.
  [[nodiscard]] Tree boost_tree(std::span<const double> gradients,
                                std::span<const double> hessians,
                                const BoostTreeConfig& config);

 private:
  struct State;
  template <typename PayloadFn, typename LeafFn, typename ScoreFn>
  class Builder;
  std::unique_ptr<State> state_;
};

}  // namespace polaris::ml
