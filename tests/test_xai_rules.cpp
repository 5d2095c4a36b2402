#include <gtest/gtest.h>

#include "ml/model.hpp"
#include "util/rng.hpp"
#include "xai/rules.hpp"
#include "xai/waterfall.hpp"

namespace {

using namespace polaris;

/// Dataset where label = f0 AND NOT f1 (plus distractors): rule mining
/// should recover literals f0 and !f1.
ml::Dataset planted_rule_data(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double f0 = rng.chance(0.5) ? 1.0 : 0.0;
    const double f1 = rng.chance(0.5) ? 1.0 : 0.0;
    const double f2 = rng.chance(0.5) ? 1.0 : 0.0;
    const double f3 = rng.chance(0.5) ? 1.0 : 0.0;
    data.add({f0, f1, f2, f3}, (f0 == 1.0 && f1 == 0.0) ? 1 : 0);
  }
  return data;
}

TEST(Rules, LiteralAndRuleMatching) {
  const xai::Literal positive{0, true};
  const xai::Literal negative{1, false};
  const std::vector<double> x{1.0, 0.0};
  EXPECT_TRUE(positive.matches(x));
  EXPECT_TRUE(negative.matches(x));
  xai::Rule rule;
  rule.literals = {positive, negative};
  EXPECT_TRUE(rule.matches(x));
  const std::vector<double> y{1.0, 1.0};
  EXPECT_FALSE(rule.matches(y));
}

TEST(Rules, ExtractionRecoversPlantedRule) {
  const auto data = planted_rule_data(800, 3);
  ml::Model model(ml::AdaBoostConfig{.rounds = 40, .max_depth = 2});
  model.fit(data);

  const auto rules = xai::extract_rules(model, data);
  ASSERT_FALSE(rules.empty());
  // The top mask rule must involve f0 positive and f1 negative.
  bool found = false;
  for (const auto& rule : rules.rules()) {
    if (rule.action != 1) continue;
    bool has_f0 = false, has_not_f1 = false;
    for (const auto& lit : rule.literals) {
      if (lit.feature == 0 && lit.positive) has_f0 = true;
      if (lit.feature == 1 && !lit.positive) has_not_f1 = true;
    }
    if (has_f0 && has_not_f1 && rule.precision > 0.85) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Rules, StandaloneScoringFollowsRules) {
  const auto data = planted_rule_data(800, 4);
  ml::Model model(ml::AdaBoostConfig{.rounds = 40, .max_depth = 2});
  model.fit(data);
  const auto rules = xai::extract_rules(model, data);
  ASSERT_FALSE(rules.empty());
  // "Rules used independently" (Sec. IV-B): classify by rules alone.
  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double s = rules.score(data.row(i));
    if (s == 0.5) continue;  // no rule fired
    ++total;
    correct += ((s >= 0.5 ? 1 : 0) == data.label(i)) ? 1 : 0;
  }
  ASSERT_GT(total, data.size() / 4);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.8);
}

TEST(Rules, CombinedScoreBlendsModelAndRules) {
  const auto data = planted_rule_data(500, 5);
  ml::Model model(ml::AdaBoostConfig{.rounds = 30, .max_depth = 2});
  model.fit(data);
  const auto rules = xai::extract_rules(model, data);
  const auto x = data.row(0);
  const double model_only = model.predict_proba(x);
  const double combined = rules.combined_score(model_only, x, 0.7);
  const double rules_only = rules.score(x, model_only);
  EXPECT_NEAR(combined, 0.7 * model_only + 0.3 * rules_only, 1e-12);
  // Empty rule set degrades to the model.
  const xai::RuleSet empty;
  EXPECT_DOUBLE_EQ(empty.combined_score(model_only, x, 0.7), model_only);
  EXPECT_DOUBLE_EQ(empty.score(x, 0.42), 0.42);
}

TEST(Rules, ToStringUsesFeatureNames) {
  xai::Rule rule;
  rule.literals = {{0, true}, {1, false}};
  rule.action = 1;
  rule.support = 12;
  rule.precision = 0.9;
  const std::vector<std::string> names{"G4=nand", "adj(G4,G5)"};
  const std::string text = rule.to_string(names);
  EXPECT_NE(text.find("G4=nand"), std::string::npos);
  EXPECT_NE(text.find("!adj(G4,G5)"), std::string::npos);
  EXPECT_NE(text.find("masking gate"), std::string::npos);
  rule.action = 0;
  EXPECT_NE(rule.to_string(names).find("Do not Mask"), std::string::npos);
}

TEST(Rules, KeepsTheSixteenStrongestRules) {
  // "At least 3 of f0..f4" over 8 binary features mines 28 rules, more
  // than the cap: extraction keeps the 16 with the largest
  // support * precision.
  util::Xoshiro256 rng(6);
  ml::Dataset data;
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = rng.chance(0.5) ? 1.0 : 0.0;
    const double votes = x[0] + x[1] + x[2] + x[3] + x[4];
    data.add(std::move(x), votes >= 3.0 ? 1 : 0);
  }
  ml::Model model(ml::AdaBoostConfig{.rounds = 60, .max_depth = 2});
  model.fit(data);
  const auto rules = xai::extract_rules(model, data).rules();
  ASSERT_EQ(rules.size(), 16u);
  const auto strength = [](const xai::Rule& rule) {
    return static_cast<double>(rule.support) * rule.precision;
  };
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(strength(rules[i - 1]), strength(rules[i])) << "rule " << i;
  }
}

TEST(Waterfall, DecomposesPrediction) {
  const auto data = planted_rule_data(400, 7);
  ml::Model model(ml::AdaBoostConfig{.rounds = 25, .max_depth = 2});
  model.fit(data);
  const std::vector<std::string> names{"f0", "f1", "f2", "f3"};
  const auto wf = xai::make_waterfall(model, data.row(0), names, 3);
  // f(x) = E[f] + sum(bars) + rest.
  double total = wf.expected_value + wf.rest;
  for (const auto& bar : wf.bars) total += bar.phi;
  EXPECT_NEAR(total, wf.fx, 1e-6);
  EXPECT_LE(wf.bars.size(), 3u);
  // Bars are sorted by |phi| descending.
  for (std::size_t i = 1; i < wf.bars.size(); ++i) {
    EXPECT_GE(std::fabs(wf.bars[i - 1].phi), std::fabs(wf.bars[i].phi));
  }
  const std::string text = wf.render();
  EXPECT_NE(text.find("E[f(x)]"), std::string::npos);
  EXPECT_NE(text.find("f0"), std::string::npos);
}

}  // namespace
