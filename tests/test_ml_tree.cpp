#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris::ml;

Dataset xor_dataset(int copies) {
  Dataset data;
  for (int c = 0; c < copies; ++c) {
    data.add({0, 0}, 0);
    data.add({0, 1}, 1);
    data.add({1, 0}, 1);
    data.add({1, 1}, 0);
  }
  return data;
}

std::vector<std::size_t> all_indices(const Dataset& data) {
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

TEST(ClassificationTree, LearnsXorExactly) {
  const Dataset data = xor_dataset(8);
  TreeConfig config;
  config.max_depth = 3;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double p = tree.predict(data.row(i));
    EXPECT_EQ(p >= 0.5 ? 1 : 0, data.label(i)) << "row " << i;
  }
  EXPECT_GE(tree.depth(), 2u);
}

TEST(ClassificationTree, DepthZeroIsPrior) {
  Dataset data;
  data.add({0.0}, 1);
  data.add({1.0}, 1);
  data.add({2.0}, 0);
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  EXPECT_EQ(tree.nodes.size(), 1u);
  EXPECT_NEAR(tree.nodes[0].value, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(ClassificationTree, RespectsMinSamplesLeaf) {
  Dataset data;
  for (int i = 0; i < 20; ++i) data.add({static_cast<double>(i)}, i < 10 ? 0 : 1);
  TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 8;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  // Any split must leave >= 8 samples per side: at most one split here.
  EXPECT_LE(tree.leaf_count(), 2u);
}

TEST(ClassificationTree, WeightsShiftTheDecision) {
  // Same geometry, but class-1 samples get huge weight: the leaf
  // probability must follow the weights.
  Dataset data;
  data.add({0.0}, 0, 1.0);
  data.add({0.0}, 0, 1.0);
  data.add({0.0}, 1, 10.0);
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  EXPECT_NEAR(tree.nodes[0].value, 10.0 / 12.0, 1e-12);
}

TEST(ClassificationTree, CoverTracksWeights) {
  Dataset data = xor_dataset(4);
  TreeConfig config;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  EXPECT_DOUBLE_EQ(tree.nodes[0].cover, 16.0);
  // Children covers sum to the parent cover.
  for (const auto& node : tree.nodes) {
    if (!node.is_leaf()) {
      EXPECT_NEAR(tree.nodes[static_cast<std::size_t>(node.left)].cover +
                      tree.nodes[static_cast<std::size_t>(node.right)].cover,
                  node.cover, 1e-9);
    }
  }
}

TEST(ClassificationTree, HandlesContinuousFeatures) {
  // y = 1 iff x > 0.37: needs the sorted-scan path (many distinct values).
  Dataset data;
  polaris::util::Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform();
    data.add({x}, x > 0.37 ? 1 : 0);
  }
  TreeConfig config;
  config.max_depth = 1;
  const Tree tree =
      TreeFitter(data).classification_tree(all_indices(data), config);
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  EXPECT_NEAR(tree.nodes[0].threshold, 0.37, 0.05);
}

TEST(ClassificationTree, BootstrappedIndicesWithMultiplicity) {
  Dataset data = xor_dataset(2);
  // Overweight one row by repetition.
  std::vector<std::size_t> indices = {1, 1, 1, 1, 1, 1, 0};
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree = TreeFitter(data).classification_tree(indices, config);
  EXPECT_NEAR(tree.nodes[0].value, 6.0 / 7.0, 1e-12);
}

TEST(BoostTree, NewtonLeafValue) {
  // One leaf: value = -sum(g)/(sum(h)+lambda).
  Dataset data;
  data.add({0.0}, 1);
  data.add({1.0}, 0);
  const std::vector<double> g{-0.5, 0.5};
  const std::vector<double> h{0.25, 0.25};
  BoostTreeConfig config;
  config.max_depth = 0;
  config.lambda = 1.0;
  const Tree tree = TreeFitter(data).boost_tree(g, h, config);
  EXPECT_NEAR(tree.nodes[0].value, 0.0, 1e-12);  // gradients cancel
}

TEST(BoostTree, SplitsOnInformativeFeature) {
  Dataset data;
  std::vector<double> g, h;
  for (int i = 0; i < 100; ++i) {
    const double x = i < 50 ? 0.0 : 1.0;
    data.add({x, 0.5}, x > 0.5 ? 1 : 0);
    g.push_back(x > 0.5 ? -0.5 : 0.5);
    h.push_back(0.25);
  }
  BoostTreeConfig config;
  config.max_depth = 2;
  const Tree tree = TreeFitter(data).boost_tree(g, h, config);
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  EXPECT_EQ(tree.nodes[0].feature, 0);
  // Left leaf (x=0) pushes negative class: value = -25/(12.5+1) < 0 ...
  const double left = tree.nodes[static_cast<std::size_t>(tree.nodes[0].left)].value;
  const double right = tree.nodes[static_cast<std::size_t>(tree.nodes[0].right)].value;
  EXPECT_LT(left, 0.0);
  EXPECT_GT(right, 0.0);
}

TEST(BoostTree, GammaPrunesWeakSplits) {
  Dataset data;
  std::vector<double> g, h;
  polaris::util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    data.add({rng.uniform()}, 0);
    g.push_back(rng.uniform(-0.01, 0.01));  // nearly no signal
    h.push_back(0.25);
  }
  BoostTreeConfig strict;
  strict.max_depth = 3;
  strict.gamma = 10.0;
  const Tree tree = TreeFitter(data).boost_tree(g, h, strict);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(Tree, PredictTraversesCorrectPath) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {0, 0.5, 1, 2, 0.0, 4.0};
  tree.nodes[1] = {-1, 0.0, -1, -1, 0.25, 2.0};
  tree.nodes[2] = {-1, 0.0, -1, -1, 0.75, 2.0};
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.3}), 0.25);
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.5}), 0.25);  // <= goes left
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.7}), 0.75);
}

TEST(Ensemble, MarginAndLinks) {
  Tree stump;
  stump.nodes.resize(1);
  stump.nodes[0] = {-1, 0.0, -1, -1, 1.0, 1.0};
  TreeEnsemble ensemble;
  ensemble.base = 0.5;
  ensemble.trees.push_back({stump, 2.0});
  EXPECT_DOUBLE_EQ(ensemble.margin(std::array{0.0}), 2.5);
  ensemble.link = TreeEnsemble::Link::kIdentity;
  EXPECT_DOUBLE_EQ(ensemble.probability(std::array{0.0}), 1.0);  // clamped
  ensemble.link = TreeEnsemble::Link::kLogistic;
  EXPECT_NEAR(ensemble.probability(std::array{0.0}),
              1.0 / (1.0 + std::exp(-2.5)), 1e-12);
}

// --- bit-exact golden of the split finder ------------------------------------
//
// Every node field of three seeded fits, written as bit patterns to
// tests/golden/tree_fit.csv. The fits use only + - * /, so the comparison is
// exact on every platform. Columns 0-13 cover each path a (node, feature)
// pair can take: constant, binary and 7-valued columns; 24 and 25 distinct
// values (either side of the 24-bucket cap); 256 values (the most a column
// can hold and still be binned); more than 256, distinct or tied; and a
// column holding both -0.0 and +0.0. Columns 14-33 are four groups of five
// columns, each group split by one hidden binary feature. Groups 0 and 2
// hold the feature itself and four
// shadows whose best threshold splits the rows exactly as it does: 24
// values (bucket sums), 26 and 40 tied values (the sort sweep while both
// halves share a node) and 6 values. Groups 1 and 3 hold five shadows of
// 26 to 106 tied values, so their near-ties are settled by the sort sweep's
// tie order alone. Each column scores the one partition through another
// path or summation order, so which wins turns on the last bits of the
// scores, and the file pins every summation order too. Regenerate only for
// an intentional change:
//   POLARIS_UPDATE_GOLDEN=1 ./test_ml_tree

Dataset golden_dataset() {
  constexpr std::size_t kRows = 640;
  constexpr double kSignedZeros[] = {-2.0, -0.0, 0.0, 1.0, 3.0};
  constexpr double kEffects[] = {-2.5, 3.0, -1.5, 2.0};
  polaris::util::Xoshiro256 rng(29);
  Dataset data;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<double> x(34);
    x[0] = 0.0;                                       // constant
    x[1] = 3.25;                                      // constant
    for (std::size_t f = 2; f < 6; ++f) x[f] = rng.chance(0.5) ? 1.0 : 0.0;
    x[6] = 0.5 * static_cast<double>(rng.bounded(7));      // 7 values
    x[7] = 0.25 * static_cast<double>(i % 24);             // 24 values
    x[8] = 1.0 + static_cast<double>(rng.bounded(25));     // 25 values
    x[9] = rng.uniform();                                  // > 256 values
    x[10] = kSignedZeros[rng.bounded(5)];                  // -0.0 and +0.0
    x[11] = static_cast<double>(i % 256) / 16.0;           // 256 values
    x[12] = rng.chance(0.9) ? 0.0 : 1.0;                   // rare binary
    x[13] = static_cast<double>(rng.bounded(400));         // > 256, tied
    double score = (x[2] != x[3] ? 1.0 : -1.0) + 0.4 * x[6] - 0.25 * x[7] +
                   0.08 * x[8] + 1.5 * x[9] + 0.5 * x[10] - 0.1 * x[11] +
                   x[12] - 0.002 * x[13] + rng.uniform(-1.0, 1.0) - 0.5;
    for (std::size_t k = 0; k < 4; ++k) {
      double* group = &x[14 + 5 * k];
      const bool half = rng.chance(0.5);
      const double base = half ? 1000.0 : 0.0;
      if (k % 2 == 0) {
        group[0] = half ? 1.0 : 0.0;
        group[1] = base + static_cast<double>(rng.bounded(12));
        group[2] = base + static_cast<double>(rng.bounded(13));
        group[3] = base + static_cast<double>(rng.bounded(20));
        group[4] = base + 2.0 * static_cast<double>(rng.bounded(3));
      } else {
        for (std::size_t j = 0; j < 5; ++j) {
          group[j] = base + static_cast<double>(rng.bounded(13 + 5 * j));
        }
      }
      score += kEffects[k] * (half ? 1.0 : 0.0);
    }
    data.add(std::move(x), score > 0.0 ? 1 : 0, rng.uniform(0.25, 4.0));
  }
  return data;
}

std::string hex_bits(double value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

void append_tree(std::vector<std::string>& lines, const std::string& name,
                 const Tree& tree) {
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& n = tree.nodes[i];
    lines.push_back(name + "," + std::to_string(i) + "," +
                    std::to_string(n.feature) + "," + hex_bits(n.threshold) +
                    "," + std::to_string(n.left) + "," + std::to_string(n.right) +
                    "," + hex_bits(n.value) + "," + hex_bits(n.cover));
  }
}

TEST(TreeGolden, SplitFinderIsBitExact) {
  const Dataset data = golden_dataset();
  std::vector<std::string> lines{
      "tree,node,feature,threshold,left,right,value,cover"};

  TreeConfig full;
  full.max_depth = 6;
  append_tree(lines, "classification",
              TreeFitter(data).classification_tree(all_indices(data), full));

  polaris::util::Xoshiro256 rng(77);
  std::vector<std::size_t> bootstrap(data.size());
  for (auto& index : bootstrap) index = rng.bounded(data.size());
  TreeConfig subset;
  subset.max_depth = 6;
  subset.features_per_split = 4;
  subset.seed = 12345;
  append_tree(lines, "bootstrap_subset",
              TreeFitter(data).classification_tree(bootstrap, subset));

  std::vector<double> gradients(data.size()), hessians(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    gradients[i] = rng.uniform(-1.0, 1.0) + (data.label(i) == 1 ? -0.5 : 0.5);
    hessians[i] = rng.uniform(0.05, 0.3);
  }
  BoostTreeConfig boost;
  boost.max_depth = 5;
  append_tree(lines, "boost",
              TreeFitter(data).boost_tree(gradients, hessians, boost));

  const std::string path = std::string(POLARIS_GOLDEN_DIR) + "/tree_fit.csv";
  const char* update = std::getenv("POLARIS_UPDATE_GOLDEN");
  if (update != nullptr && *update != '\0' && *update != '0') {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const auto& line : lines) out << line << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with POLARIS_UPDATE_GOLDEN=1)";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size()) << "node count drifted";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i]) << "line " << i + 1 << " drifted";
  }
}

TEST(TreeErrors, EmptyDatasetThrows) {
  Dataset empty;
  TreeConfig config;
  EXPECT_THROW((void)TreeFitter(empty).classification_tree({}, config),
               std::invalid_argument);
  const std::vector<double> g;
  EXPECT_THROW((void)TreeFitter(empty).boost_tree(g, g, {}),
               std::invalid_argument);
}

}  // namespace
