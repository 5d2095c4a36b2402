// SHAP-guided rule extraction (paper Table V and Sec. IV-B: "The automated
// rules, unlike handcrafted ones, can be used independently to make masking
// decisions or alongside the model").
//
// For confidently-classified training samples, the top-|phi| features whose
// attribution pushes toward the predicted class are binarized into literals
// ("G4=nand is true", "adj(G8,G9) is false"); identical conjunctions are
// aggregated with support and precision statistics, yielding tables like
// the paper's Rule A ("G4 = NAND && ... -> Select & Replace with masking
// gate") and Rule B ("... -> Do not Mask").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace polaris::xai {

struct Literal {
  std::size_t feature = 0;
  bool positive = true;  // x[feature] >= 0.5 must equal `positive`

  [[nodiscard]] bool matches(std::span<const double> x) const {
    return (x[feature] >= 0.5) == positive;
  }
};

struct Rule {
  std::vector<Literal> literals;  // conjunction
  int action = 1;                 // 1 = mask, 0 = do-not-mask
  std::size_t support = 0;        // matching training samples
  double precision = 0.0;         // fraction of matches with label == action

  [[nodiscard]] bool matches(std::span<const double> x) const {
    for (const Literal& lit : literals) {
      if (!lit.matches(x)) return false;
    }
    return true;
  }

  [[nodiscard]] std::string to_string(
      std::span<const std::string> feature_names) const;
};

struct RuleExtractionConfig {
  /// Features usable as literals (empty = all). POLARIS passes the binary
  /// structural features only (type one-hots + adjacency), matching the
  /// paper's rule vocabulary.
  std::vector<bool> allowed_features;
};

class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(std::vector<Rule> rules) : rules_(std::move(rules)) {}

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] bool empty() const { return rules_.empty(); }

  /// Standalone rule-based score in [0,1]: precision of the strongest
  /// matching rule (mask rules push up, do-not-mask rules push down);
  /// `fallback` when nothing matches.
  [[nodiscard]] double score(std::span<const double> x,
                             double fallback = 0.5) const;

  /// Rule-augmented model score: alpha * model + (1-alpha) * rules
  /// ("alongside the model to achieve better predictions").
  [[nodiscard]] double combined_score(double model_score,
                                      std::span<const double> x,
                                      double alpha = 0.7) const;

 private:
  std::vector<Rule> rules_;
};

/// Mines rules from SHAP attributions of the fitted model over `data`.
[[nodiscard]] RuleSet extract_rules(const ml::Model& model,
                                    const ml::Dataset& data,
                                    const RuleExtractionConfig& config = {});

}  // namespace polaris::xai
