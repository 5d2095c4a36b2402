// Reproduces Table V: "Power side-channel mitigation rules generated via
// the POLARIS framework (AdaBoost Model)" - human-readable structural rules
// mined from SHAP attributions over the training data.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/features.hpp"
#include "ml/metrics.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Table V: SHAP-extracted masking rules (traces=%zu) ===\n\n",
              setup.traces);

  const auto trained = bench::trained_polaris(
      setup.polaris_config(), circuits::training_suite(), setup.lib);
  const auto& polaris = trained.polaris;

  const auto names =
      graph::FeatureSpec{polaris.config().locality}.feature_names();
  const auto& rules = polaris.rules();
  if (rules.empty()) {
    std::printf("no rules cleared the support/precision bar - lower "
                "theta_r or raise traces.\n");
    return 0;
  }

  char label = 'A';
  for (const auto& rule : rules.rules()) {
    std::printf("Rule %c: %s\n", label, rule.to_string(names).c_str());
    if (label < 'Z') ++label;
  }

  // "The automated rules ... can be used independently to make masking
  // decisions or alongside the model" - quantify both on the training set.
  const auto& data = polaris.training_data();
  std::size_t rules_hits = 0, rules_total = 0;
  std::size_t combo_hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double rule_score = rules.score(data.row(i));
    if (rule_score != 0.5) {
      ++rules_total;
      rules_hits += ((rule_score >= 0.5 ? 1 : 0) == data.label(i)) ? 1 : 0;
    }
    const double combo = rules.combined_score(
        polaris.model().predict_proba(data.row(i)), data.row(i));
    combo_hits += ((combo >= 0.5 ? 1 : 0) == data.label(i)) ? 1 : 0;
  }
  const auto metrics = ml::evaluate(polaris.model(), data);
  std::printf("\nstandalone rules: %.1f%% accuracy on the %zu samples they "
              "fire on (%.1f%% coverage)\n",
              rules_total == 0 ? 0.0
                               : 100.0 * static_cast<double>(rules_hits) /
                                     static_cast<double>(rules_total),
              rules_total,
              100.0 * static_cast<double>(rules_total) /
                  static_cast<double>(data.size()));
  std::printf("model alone: %.1f%% accuracy; model+rules: %.1f%%\n",
              100.0 * metrics.accuracy,
              100.0 * static_cast<double>(combo_hits) /
                  static_cast<double>(data.size()));
  return 0;
}
