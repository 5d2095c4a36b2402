#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/smote.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris::ml;

TEST(Dataset, AddAndAccess) {
  Dataset data;
  data.add({1.0, 2.0}, 1, 2.0);
  data.add({3.0, 4.0}, 0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.feature_count(), 2u);
  EXPECT_EQ(data.label(0), 1);
  EXPECT_DOUBLE_EQ(data.weight(0), 2.0);
  EXPECT_DOUBLE_EQ(data.weight(1), 1.0);
  EXPECT_EQ(data.positives(), 1u);
  EXPECT_EQ(data.negatives(), 1u);
  EXPECT_THROW(data.add({1.0}, 0), std::invalid_argument);
}

TEST(Dataset, ClassBalanceWeights) {
  Dataset data;
  for (int i = 0; i < 90; ++i) data.add({0.0}, 0);
  for (int i = 0; i < 10; ++i) data.add({1.0}, 1);
  data.apply_class_balance_weights();
  double w_pos = 0.0, w_neg = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (data.label(i) == 1 ? w_pos : w_neg) += data.weight(i);
  }
  EXPECT_NEAR(w_pos, w_neg, 1e-9);
}

TEST(Dataset, BalanceWithSingleClassIsNoop) {
  Dataset data;
  data.add({0.0}, 1);
  data.add({1.0}, 1);
  data.apply_class_balance_weights();
  EXPECT_DOUBLE_EQ(data.weight(0), 1.0);
}

TEST(Dataset, SplitPartitionsAndIsDeterministic) {
  Dataset data;
  for (int i = 0; i < 100; ++i) data.add({static_cast<double>(i)}, i % 2);
  auto [train_a, test_a] = data.split(0.8, 42);
  auto [train_b, test_b] = data.split(0.8, 42);
  EXPECT_EQ(train_a.size(), 80u);
  EXPECT_EQ(test_a.size(), 20u);
  EXPECT_EQ(train_a.rows(), train_b.rows());
  // Union of features covers the full index set exactly once.
  std::vector<int> seen(100, 0);
  for (const auto& row : train_a.rows()) seen[static_cast<int>(row[0])]++;
  for (const auto& row : test_a.rows()) seen[static_cast<int>(row[0])]++;
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Dataset, AppendChecksWidth) {
  Dataset a, b;
  a.add({1.0, 2.0}, 1);
  b.add({1.0}, 0);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  Dataset c;
  c.add({5.0, 6.0}, 0, 3.0);
  a.append(c);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.weight(1), 3.0);
}

TEST(Dataset, ConstructorRejectsRaggedRows) {
  // feature_count() reads row 0, so a shorter later row would be read past
  // its end by the split scan.
  EXPECT_THROW(Dataset({{1.0, 2.0}, {3.0}}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Dataset({{1.0}, {2.0, 3.0}}, {0, 1}), std::invalid_argument);
  const Dataset ok({{1.0, 2.0}, {3.0, 4.0}}, {0, 1});
  EXPECT_EQ(ok.feature_count(), 2u);
}

TEST(Dataset, RejectsNonFiniteFeatures) {
  // NaN breaks the strict weak order the split scan's sorts rely on.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Dataset({{1.0, 2.0}, {bad, 4.0}}, {0, 1}),
                 std::invalid_argument);
    Dataset data;
    data.add({1.0, 2.0}, 0);
    EXPECT_THROW(data.add({3.0, bad}, 1), std::invalid_argument);
    EXPECT_THROW(Dataset().add({bad}, 1), std::invalid_argument);
    EXPECT_EQ(data.size(), 1u);
  }
}

TEST(Smote, BalancesMinorityClass) {
  polaris::util::Xoshiro256 rng(4);
  Dataset data;
  for (int i = 0; i < 200; ++i) data.add({rng.uniform(), rng.uniform()}, 0);
  for (int i = 0; i < 20; ++i) {
    data.add({rng.uniform(0.8, 1.0), rng.uniform(0.8, 1.0)}, 1);
  }
  const Dataset balanced = smote_oversample(data, 1);
  EXPECT_NEAR(static_cast<double>(balanced.positives()),
              static_cast<double>(balanced.negatives()), 2.0);
  EXPECT_GT(balanced.size(), data.size());
}

TEST(Smote, SyntheticSamplesStayInMinorityRegion) {
  polaris::util::Xoshiro256 rng(5);
  Dataset data;
  for (int i = 0; i < 100; ++i) data.add({rng.uniform(0.0, 0.2)}, 0);
  for (int i = 0; i < 10; ++i) data.add({rng.uniform(0.8, 1.0)}, 1);
  const Dataset balanced = smote_oversample(data, 2);
  for (std::size_t i = data.size(); i < balanced.size(); ++i) {
    EXPECT_EQ(balanced.label(i), 1);
    // Interpolations between minority points stay within their hull.
    EXPECT_GE(balanced.row(i)[0], 0.8);
    EXPECT_LE(balanced.row(i)[0], 1.0);
  }
}

TEST(Smote, DegenerateInputsUnchanged) {
  Dataset single;
  single.add({0.0}, 1);
  single.add({1.0}, 0);  // minority has 1 sample: cannot interpolate
  EXPECT_EQ(smote_oversample(single, 1).size(), 2u);

  Dataset one_class;
  one_class.add({0.0}, 1);
  one_class.add({1.0}, 1);
  EXPECT_EQ(smote_oversample(one_class, 1).size(), 2u);

  Dataset balanced_already;
  for (int i = 0; i < 10; ++i) balanced_already.add({0.1 * i}, i % 2);
  EXPECT_EQ(smote_oversample(balanced_already, 1).size(), 10u);
}

TEST(Metrics, PerfectAndWorstAuc) {
  const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels_good{0, 0, 1, 1};
  const std::vector<int> labels_bad{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels_good), 1.0);
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels_bad), 0.0);
}

TEST(Metrics, AucWithTiesIsHalfCredit) {
  const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 0.5);
}

TEST(Metrics, SingleClassAucIsHalf) {
  const std::vector<double> scores{0.1, 0.9};
  const std::vector<int> labels{1, 1};
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 0.5);
}

TEST(Metrics, HandComputedConfusion) {
  // Fake classifier: a constant probability per row via a stub model is
  // overkill; check the arithmetic through roc_auc + a tiny known case
  // using evaluate() with a trained stump would couple tests. Instead
  // verify precision/recall identities on a crafted score set.
  const std::vector<double> scores{0.9, 0.8, 0.4, 0.3, 0.7};
  const std::vector<int> labels{1, 0, 1, 0, 1};
  // thresh 0.5: predicted = {1,1,0,0,1}: tp=2 fp=1 fn=1 tn=1.
  int tp = 0, fp = 0, fn = 0, tn = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const int pred = scores[i] >= 0.5;
    if (pred && labels[i]) ++tp;
    else if (pred) ++fp;
    else if (labels[i]) ++fn;
    else ++tn;
  }
  EXPECT_EQ(tp, 2);
  EXPECT_EQ(fp, 1);
  EXPECT_EQ(fn, 1);
  EXPECT_EQ(tn, 1);
  EXPECT_NEAR(roc_auc(scores, labels), 4.0 / 6.0, 1e-12);
}

}  // namespace
