#include "xai/rules.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "ml/split_table.hpp"
#include "util/strings.hpp"
#include "xai/treeshap.hpp"

namespace polaris::xai {

namespace {

/// Literals per rule (Table V rules conjoin ~4-5 conditions).
constexpr std::size_t kLiteralsPerRule = 4;
/// Only samples with predicted probability >= kConfidenceHi (mask rules) or
/// <= kConfidenceLo (do-not-mask rules) seed rules.
constexpr double kConfidenceHi = 0.65;
constexpr double kConfidenceLo = 0.35;
/// A rule is kept with at least this many supporting samples and this
/// precision; the kMaxRules strongest by support * precision survive.
constexpr std::size_t kMinSupport = 3;
constexpr double kMinPrecision = 0.6;
constexpr std::size_t kMaxRules = 16;

}  // namespace

std::string Rule::to_string(std::span<const std::string> feature_names) const {
  std::ostringstream out;
  bool first = true;
  for (const Literal& lit : literals) {
    if (!first) out << " && ";
    first = false;
    const std::string name = lit.feature < feature_names.size()
                                 ? feature_names[lit.feature]
                                 : util::numbered("f", lit.feature);
    if (!lit.positive) out << "!";
    out << name;
  }
  out << "  ->  " << (action == 1 ? "Select & Replace with masking gate"
                                  : "Do not Mask");
  out << "  [support=" << support << ", precision=";
  out << static_cast<int>(std::lround(precision * 100.0)) << "%]";
  return out.str();
}

double RuleSet::score(std::span<const double> x, double fallback) const {
  double best_mask = -1.0;
  double best_keep = -1.0;
  for (const Rule& rule : rules_) {
    if (!rule.matches(x)) continue;
    if (rule.action == 1) best_mask = std::max(best_mask, rule.precision);
    else best_keep = std::max(best_keep, rule.precision);
  }
  if (best_mask < 0.0 && best_keep < 0.0) return fallback;
  if (best_mask >= best_keep) return 0.5 + 0.5 * best_mask;
  return 0.5 - 0.5 * best_keep;
}

double RuleSet::combined_score(double model_score, std::span<const double> x,
                               double alpha) const {
  if (rules_.empty()) return model_score;
  return alpha * model_score + (1.0 - alpha) * score(x, model_score);
}

RuleSet extract_rules(const ml::Model& model, const ml::Dataset& data,
                      const RuleExtractionConfig& config) {
  // Key: ordered literal list encoded as (feature, polarity) pairs.
  using Key = std::vector<std::pair<std::size_t, bool>>;
  struct Stats {
    std::size_t support = 0;
    std::size_t agree = 0;  // label == action
    int action = 1;
  };
  std::map<Key, Stats> candidates;

  // A row's TreeSHAP values, and with them the features its rule keeps,
  // depend on the row only through its outcome key (ml/split_table.hpp),
  // so each distinct key is explained once. Computing a key costs less
  // than one TreeSHAP pass, which visits every node.
  const ml::SplitTable splits(model.ensemble());
  ml::KeyMemo<std::vector<std::size_t>> kept_features;
  std::vector<std::uint64_t> row_key(splits.key_words());

  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto x = data.row(i);
    const double p = model.predict_proba(x);
    int action;
    if (p >= kConfidenceHi) action = 1;
    else if (p <= kConfidenceLo) action = 0;
    else continue;

    // Equal keys give equal p, so `action` is a function of the key too.
    splits.key(x, row_key);
    const auto& features = kept_features.get(row_key, [&] {
      const auto phi = tree_shap(model.ensemble(), x);
      // Rank features whose attribution pushes toward the predicted class.
      std::vector<std::size_t> order(phi.size());
      std::iota(order.begin(), order.end(), 0);
      const double sign = action == 1 ? 1.0 : -1.0;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return sign * phi[a] > sign * phi[b];
      });
      std::vector<std::size_t> kept;
      for (const std::size_t f : order) {
        if (kept.size() == kLiteralsPerRule) break;
        if (sign * phi[f] <= 0.0) break;  // ran out of supporting features
        if (!config.allowed_features.empty() &&
            (f >= config.allowed_features.size() ||
             !config.allowed_features[f])) {
          continue;
        }
        kept.push_back(f);
      }
      return kept;
    });
    if (features.size() < 2) continue;
    Key key;
    for (const std::size_t f : features) key.emplace_back(f, x[f] >= 0.5);
    std::sort(key.begin(), key.end());
    auto& stats = candidates[key];
    stats.support += 1;
    stats.action = action;
    if (data.label(i) == action) stats.agree += 1;
  }

  std::vector<Rule> rules;
  for (const auto& [key, stats] : candidates) {
    if (stats.support < kMinSupport) continue;
    const double precision = static_cast<double>(stats.agree) /
                             static_cast<double>(stats.support);
    if (precision < kMinPrecision) continue;
    Rule rule;
    for (const auto& [feature, positive] : key) {
      rule.literals.push_back({feature, positive});
    }
    rule.action = stats.action;
    rule.support = stats.support;
    rule.precision = precision;
    rules.push_back(std::move(rule));
  }
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    return static_cast<double>(a.support) * a.precision >
           static_cast<double>(b.support) * b.precision;
  });
  if (rules.size() > kMaxRules) rules.resize(kMaxRules);
  return RuleSet(std::move(rules));
}

}  // namespace polaris::xai
