#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/thread_pool.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "serialize/archive.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris::ml;

/// Noisy two-cluster problem with a few irrelevant features.
Dataset cluster_dataset(std::size_t n, std::uint64_t seed, double noise = 0.1) {
  polaris::util::Xoshiro256 rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double center = label == 1 ? 0.8 : 0.2;
    data.add({center + rng.uniform(-noise, noise),
              center + rng.uniform(-noise, noise), rng.uniform(),
              rng.uniform()},
             label);
  }
  return data;
}

/// XOR-of-two-binary-features with distractors: requires depth >= 2.
Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  polaris::util::Xoshiro256 rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.chance(0.5) ? 1.0 : 0.0;
    const double b = rng.chance(0.5) ? 1.0 : 0.0;
    data.add({a, b, rng.uniform()}, (a != b) ? 1 : 0);
  }
  return data;
}

double holdout_accuracy(Model& model, const Dataset& data) {
  auto [train, test] = data.split(0.7, 99);
  model.fit(train);
  return evaluate(model, test).accuracy;
}

TEST(RandomForest, SeparatesClusters) {
  auto data = cluster_dataset(600, 1);
  Model model(ForestConfig{.trees = 30, .max_depth = 6, .seed = 7});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(RandomForest, LearnsXor) {
  auto data = xor_dataset(800, 2);
  Model model(ForestConfig{.trees = 40, .max_depth = 5, .seed = 3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(RandomForest, ProbabilitiesAreAverages) {
  auto data = cluster_dataset(200, 3);
  Model model(ForestConfig{.trees = 10, .seed = 1});
  model.fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    const double p = model.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(model.ensemble().trees.size(), 10u);
  EXPECT_EQ(model.ensemble().link, TreeEnsemble::Link::kIdentity);
}

TEST(Gbdt, SeparatesClusters) {
  auto data = cluster_dataset(600, 4);
  Model model(GbdtConfig{.rounds = 60, .max_depth = 3, .learning_rate = 0.3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(Gbdt, LearnsXor) {
  auto data = xor_dataset(800, 5);
  Model model(GbdtConfig{.rounds = 80, .max_depth = 3, .learning_rate = 0.3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(Gbdt, BaseScoreIsPriorLogOdds) {
  Dataset data;
  for (int i = 0; i < 90; ++i) data.add({0.0}, 1);
  for (int i = 0; i < 10; ++i) data.add({1.0}, 0);
  Model model(GbdtConfig{.rounds = 1, .learning_rate = 0.0});
  model.fit(data);
  EXPECT_NEAR(model.ensemble().base, std::log(0.9 / 0.1), 1e-9);
}

TEST(Gbdt, MoreRoundsImproveTrainingFit) {
  auto data = xor_dataset(400, 6);
  Model small(GbdtConfig{.rounds = 2, .max_depth = 2, .learning_rate = 0.1});
  Model large(GbdtConfig{.rounds = 100, .max_depth = 2, .learning_rate = 0.1});
  small.fit(data);
  large.fit(data);
  EXPECT_GE(evaluate(large, data).accuracy, evaluate(small, data).accuracy);
}

TEST(AdaBoost, SeparatesClusters) {
  auto data = cluster_dataset(600, 7);
  Model model(
      AdaBoostConfig{.rounds = 40, .max_depth = 2, .learning_rate = 0.5});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(AdaBoost, LearnsXor) {
  auto data = xor_dataset(800, 8);
  Model model(
      AdaBoostConfig{.rounds = 60, .max_depth = 2, .learning_rate = 0.5});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(AdaBoost, StopsOnUnlearnableData) {
  // A constant feature with perfectly balanced labels: the stump cannot do
  // better than chance (err = 0.5 exactly), so boosting must halt at once.
  Dataset data;
  for (int i = 0; i < 300; ++i) data.add({0.0}, i % 2);
  Model model(AdaBoostConfig{.rounds = 50, .max_depth = 1});
  model.fit(data);
  EXPECT_TRUE(model.ensemble().trees.empty());
  // The untrained-ish model still predicts a valid probability.
  EXPECT_NEAR(model.predict_proba(std::array{0.0}), 0.5, 0.01);
}

TEST(AdaBoost, MarginIsWeightedVote) {
  auto data = cluster_dataset(300, 12);
  Model model(AdaBoostConfig{.rounds = 15, .max_depth = 2});
  model.fit(data);
  const auto& ensemble = model.ensemble();
  ASSERT_FALSE(ensemble.trees.empty());
  // Manual margin = base + sum(w * tree(x)) must match predict_margin.
  const auto x = data.row(0);
  double manual = ensemble.base;
  for (const auto& wt : ensemble.trees) manual += wt.weight * wt.tree.predict(x);
  EXPECT_NEAR(manual, model.predict_margin(x), 1e-12);
}

TEST(Models, DeterministicForFixedSeed) {
  auto data = cluster_dataset(300, 13);
  Model a(ForestConfig{.trees = 10, .seed = 5});
  Model b(ForestConfig{.trees = 10, .seed = 5});
  a.fit(data);
  b.fit(data);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_proba(data.row(i)), b.predict_proba(data.row(i)));
  }
}

/// Wide enough that a node's split search fans out over the pool, with
/// every scan path: constant, binary and 5-valued columns (histogram
/// buckets), a 30-valued column (histogram, then the sort sweep in large
/// nodes) and continuous columns (unbinned).
Dataset wide_dataset(std::size_t n, std::uint64_t seed) {
  polaris::util::Xoshiro256 rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(48);
    x[0] = 1.0;
    for (std::size_t f = 1; f < 40; ++f) x[f] = rng.chance(0.2) ? 1.0 : 0.0;
    for (std::size_t f = 40; f < 44; ++f) {
      x[f] = static_cast<double>(rng.bounded(5));
    }
    x[44] = static_cast<double>(rng.bounded(30));
    for (std::size_t f = 45; f < 48; ++f) x[f] = rng.uniform();
    const double score = x[1] + x[2] - x[3] + 0.3 * x[40] - 0.05 * x[44] +
                         x[45] + rng.uniform(-1.0, 1.0);
    data.add(std::move(x), score > 0.5 ? 1 : 0, rng.uniform(0.5, 2.0));
  }
  return data;
}

std::vector<std::uint8_t> fitted_bytes(Model model, const Dataset& data) {
  model.fit(data);
  polaris::serialize::Writer out;
  model.save(out);
  return out.bytes();
}

TEST(Models, FitIsIndependentOfLaneCount) {
  // Lanes only schedule the per-candidate scans; the candidates are reduced
  // in a fixed order, so every lane count serializes to the same bytes.
  const Dataset data = wide_dataset(2048, 21);
  const ModelConfig configs[] = {
      AdaBoostConfig{.rounds = 8, .max_depth = 2},
      GbdtConfig{.rounds = 4, .max_depth = 3, .learning_rate = 0.3},
      ForestConfig{
          .trees = 4, .max_depth = 4, .features_per_split = 40, .seed = 3},
      DecisionTreeConfig{.max_depth = 5},
  };
  for (const auto& config : configs) {
    const std::string name = Model(config).name();
    const auto reference = fitted_bytes(Model(config), data);
    for (const std::size_t lanes : {2, 3, 8}) {
      EXPECT_EQ(fitted_bytes(Model(config, lanes), data), reference)
          << name << " at " << lanes << " lanes";
    }
    // Inside a pool job the fan-out runs inline; two concurrent fits share
    // the dataset.
    std::vector<std::uint8_t> nested[2];
    polaris::engine::ThreadPool::shared().parallel_for(
        2, 2, [&](std::size_t i) {
          nested[i] = fitted_bytes(Model(config, 3), data);
        });
    EXPECT_EQ(nested[0], reference) << name << " in a job";
    EXPECT_EQ(nested[1], reference) << name << " in a job";
  }
}

TEST(Models, ClassWeightsCounterImbalance) {
  // 95/5 imbalance; with balance weights the boosted model must still
  // recall most minority samples.
  polaris::util::Xoshiro256 rng(15);
  Dataset data;
  for (int i = 0; i < 950; ++i) data.add({rng.uniform(0.0, 0.6)}, 0);
  for (int i = 0; i < 50; ++i) data.add({rng.uniform(0.4, 1.0)}, 1);
  data.apply_class_balance_weights();
  Model model(GbdtConfig{.rounds = 40, .max_depth = 2, .learning_rate = 0.3});
  model.fit(data);
  const auto metrics = evaluate(model, data);
  EXPECT_GT(metrics.recall, 0.6);
}

}  // namespace
