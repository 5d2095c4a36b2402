#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>

#include "ml/model.hpp"
#include "xai/treeshap.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using ml::Dataset;
using ml::Tree;
using ml::TreeEnsemble;
using ml::TreeNode;

/// Brute-force Shapley values by enumerating all feature subsets, with the
/// cover-conditional expectation semantics TreeSHAP uses. Exponential: only
/// for tiny feature counts.
double tree_value_with_subset(const Tree& tree, std::size_t node,
                              std::span<const double> x,
                              const std::vector<bool>& present) {
  const TreeNode& n = tree.nodes[node];
  if (n.is_leaf()) return n.value;
  const auto f = static_cast<std::size_t>(n.feature);
  const auto left = static_cast<std::size_t>(n.left);
  const auto right = static_cast<std::size_t>(n.right);
  if (present[f]) {
    return tree_value_with_subset(tree, x[f] <= n.threshold ? left : right, x,
                                  present);
  }
  const double wl = tree.nodes[left].cover / n.cover;
  const double wr = tree.nodes[right].cover / n.cover;
  return wl * tree_value_with_subset(tree, left, x, present) +
         wr * tree_value_with_subset(tree, right, x, present);
}

std::vector<double> brute_force_shap(const Tree& tree, std::span<const double> x,
                                     std::size_t m) {
  std::vector<double> phi(m, 0.0);
  std::vector<double> factorial(m + 1, 1.0);
  for (std::size_t i = 1; i <= m; ++i) {
    factorial[i] = factorial[i - 1] * static_cast<double>(i);
  }
  for (std::size_t f = 0; f < m; ++f) {
    for (std::uint64_t subset = 0; subset < (1ULL << m); ++subset) {
      if ((subset >> f) & 1ULL) continue;  // f must be absent from S
      std::vector<bool> without(m, false);
      std::size_t size = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if ((subset >> i) & 1ULL) {
          without[i] = true;
          ++size;
        }
      }
      std::vector<bool> with = without;
      with[f] = true;
      const double weight = factorial[size] * factorial[m - size - 1] /
                            factorial[m];
      phi[f] += weight * (tree_value_with_subset(tree, 0, x, with) -
                          tree_value_with_subset(tree, 0, x, without));
    }
  }
  return phi;
}

/// Random tree over `m` binary-ish features with covers that mimic training
/// data flow.
Tree random_tree(std::size_t m, std::size_t depth, util::Xoshiro256& rng) {
  Tree tree;
  struct Frame {
    std::size_t depth;
    double cover;
  };
  // Build recursively.
  const std::function<std::int32_t(std::size_t, double)> grow =
      [&](std::size_t d, double cover) -> std::int32_t {
    const auto id = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes[static_cast<std::size_t>(id)].cover = cover;
    if (d == 0 || rng.chance(0.25)) {
      tree.nodes[static_cast<std::size_t>(id)].value = rng.uniform(-1.0, 1.0);
      return id;
    }
    const double frac = rng.uniform(0.2, 0.8);
    const auto feature = static_cast<std::int32_t>(rng.bounded(m));
    const double threshold = rng.uniform(0.2, 0.8);
    const auto left = grow(d - 1, cover * frac);
    const auto right = grow(d - 1, cover * (1.0 - frac));
    auto& node = tree.nodes[static_cast<std::size_t>(id)];
    node.feature = feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return id;
  };
  (void)grow(depth, 64.0);
  return tree;
}

TEST(TreeShap, MatchesBruteForceOnRandomTrees) {
  util::Xoshiro256 rng(101);
  const std::size_t m = 5;
  for (int trial = 0; trial < 30; ++trial) {
    const Tree tree = random_tree(m, 4, rng);
    std::vector<double> x(m);
    for (auto& v : x) v = rng.uniform();
    const auto fast = xai::tree_shap(tree, x, m);
    const auto slow = brute_force_shap(tree, x, m);
    for (std::size_t f = 0; f < m; ++f) {
      EXPECT_NEAR(fast[f], slow[f], 1e-9) << "trial " << trial << " f " << f;
    }
  }
}

TEST(TreeShap, LocalAccuracySingleTree) {
  // sum(phi) + E[tree] == tree(x), property-tested.
  util::Xoshiro256 rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const Tree tree = random_tree(6, 5, rng);
    std::vector<double> x(6);
    for (auto& v : x) v = rng.uniform();
    TreeEnsemble single;
    single.trees.push_back({tree, 1.0});
    const auto phi = xai::tree_shap(single, x);
    const double sum = std::accumulate(phi.begin(), phi.end(), 0.0);
    EXPECT_NEAR(sum + xai::expected_value(single), single.margin(x), 1e-8);
  }
}

TEST(TreeShap, DummyFeatureGetsZero) {
  // A tree that never splits on feature 2 must give phi[2] == 0.
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Tree tree = random_tree(2, 4, rng);  // splits only on features 0,1
    std::vector<double> x{0.3, 0.7, 0.9};
    const auto phi = xai::tree_shap(tree, x, 3);
    EXPECT_EQ(phi[2], 0.0);
  }
}

TEST(TreeShap, SymmetryAxiom) {
  // Two features used in perfectly symmetric positions with equal covers
  // receive equal credit for a symmetric input.
  Tree tree;
  tree.nodes.resize(7);
  // root splits f0 at 0.5; children split f1 at 0.5; leaves: AND-like.
  tree.nodes[0] = {0, 0.5, 1, 2, 0.0, 8.0};
  tree.nodes[1] = {1, 0.5, 3, 4, 0.0, 4.0};
  tree.nodes[2] = {1, 0.5, 5, 6, 0.0, 4.0};
  tree.nodes[3] = {-1, 0, -1, -1, 0.0, 2.0};
  tree.nodes[4] = {-1, 0, -1, -1, 0.0, 2.0};
  tree.nodes[5] = {-1, 0, -1, -1, 0.0, 2.0};
  tree.nodes[6] = {-1, 0, -1, -1, 1.0, 2.0};
  const std::vector<double> x{1.0, 1.0};
  const auto phi = xai::tree_shap(tree, x, 2);
  EXPECT_NEAR(phi[0], phi[1], 1e-12);
  EXPECT_NEAR(phi[0] + phi[1] + 0.25, 1.0, 1e-12);  // E[f]=0.25, f(x)=1
}

TEST(TreeShap, LocalAccuracyForAllModelKinds) {
  // Fit each real model on data and verify sum(phi) + E[f] = margin(x).
  util::Xoshiro256 rng(31);
  Dataset data;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.chance(0.5) ? 1.0 : 0.0;
    const double b = rng.chance(0.5) ? 1.0 : 0.0;
    const double c = rng.uniform();
    data.add({a, b, c}, (a != b) ? 1 : 0);
  }
  for (const ml::ModelConfig& config : {
           ml::ModelConfig(
               ml::ForestConfig{.trees = 12, .max_depth = 4, .seed = 2}),
           ml::ModelConfig(ml::GbdtConfig{
               .rounds = 25, .max_depth = 3, .learning_rate = 0.2}),
           ml::ModelConfig(ml::AdaBoostConfig{.rounds = 20, .max_depth = 2})}) {
    ml::Model model(config);
    model.fit(data);
    for (std::size_t i = 0; i < 25; ++i) {
      const auto x = data.row(i);
      const auto phi = xai::tree_shap(model.ensemble(), x);
      const double sum = std::accumulate(phi.begin(), phi.end(), 0.0);
      EXPECT_NEAR(sum + xai::expected_value(model.ensemble()),
                  model.predict_margin(x), 1e-6)
          << model.name() << " row " << i;
    }
  }
}

TEST(TreeShap, ExpectedValueMatchesCoverWeightedMean) {
  Tree stump;
  stump.nodes.resize(3);
  stump.nodes[0] = {0, 0.5, 1, 2, 0.0, 10.0};
  stump.nodes[1] = {-1, 0, -1, -1, 1.0, 7.0};
  stump.nodes[2] = {-1, 0, -1, -1, 3.0, 3.0};
  TreeEnsemble ensemble;
  ensemble.base = 0.5;
  ensemble.trees.push_back({stump, 2.0});
  // E = 0.5 + 2*(0.7*1 + 0.3*3) = 0.5 + 3.2.
  EXPECT_NEAR(xai::expected_value(ensemble), 3.7, 1e-12);
}

TEST(TreeShap, ConstantTreeContributesNothing) {
  Tree constant;
  constant.nodes.resize(1);
  constant.nodes[0] = {-1, 0, -1, -1, 2.0, 5.0};
  const std::vector<double> x{0.1, 0.2};
  const auto phi = xai::tree_shap(constant, x, 2);
  EXPECT_EQ(phi[0], 0.0);
  EXPECT_EQ(phi[1], 0.0);
}

TEST(TreeShap, RepeatedFeatureOnPathHandled) {
  // Tree splitting twice on the same feature along one path (the unwind
  // code path).
  Tree tree;
  tree.nodes.resize(5);
  tree.nodes[0] = {0, 0.7, 1, 2, 0.0, 10.0};
  tree.nodes[1] = {0, 0.3, 3, 4, 0.0, 6.0};
  tree.nodes[2] = {-1, 0, -1, -1, 5.0, 4.0};
  tree.nodes[3] = {-1, 0, -1, -1, 1.0, 2.0};
  tree.nodes[4] = {-1, 0, -1, -1, 2.0, 4.0};
  const std::vector<double> x{0.5, 0.0};
  const auto fast = xai::tree_shap(tree, x, 2);
  const auto slow = brute_force_shap(tree, x, 2);
  EXPECT_NEAR(fast[0], slow[0], 1e-10);
  EXPECT_NEAR(fast[1], slow[1], 1e-10);
  EXPECT_EQ(fast[1], 0.0);  // feature 1 never used
}

}  // namespace
