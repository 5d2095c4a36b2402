// Reproduces Table III: "Comparison among different ML models used in
// POLARIS. Values indicate leakage reduction in %." (Random Forest with
// SMOTE, XGBoost and AdaBoost with weighted training; L = 7, theta_r = 0.7,
// Msize = TVLA-flagged leaky-gate count, alpha = 0.01.)
#include <cstdio>

#include "bench_common.hpp"
#include "util/strings.hpp"

using namespace polaris;

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Table III: ML model comparison (traces=%zu, scale=%.2f) ===\n\n",
              setup.traces, setup.scale);

  const core::ModelKind kinds[3] = {core::ModelKind::kRandomForest,
                                    core::ModelKind::kXgboost,
                                    core::ModelKind::kAdaBoost};

  // Train each model variant once on the shared training suite.
  const auto training = circuits::training_suite();
  std::vector<std::unique_ptr<core::Polaris>> tools;
  for (const auto kind : kinds) {
    auto config = setup.polaris_config();
    config.model = kind;
    auto tool = std::make_unique<core::Polaris>(config);
    util::Timer timer;
    const auto summary = tool->train(training, setup.lib);
    std::printf("%-12s trained: %5zu samples, %4zu positive, %.1fs\n",
                ml::to_string(kind).c_str(), summary.samples,
                summary.positives, timer.seconds());
    tools.push_back(std::move(tool));
  }
  std::printf("\n");

  util::Table table({"Designs", "Random Forest", "XGBoost", "AdaBoost"});
  double sums[3] = {0, 0, 0};
  std::size_t rows = 0;

  for (auto& design : circuits::evaluation_suite(setup.scale)) {
    const auto tvla_config = core::tvla_config_for(tools[0]->config(), design);
    const auto before =
        tvla::run_fixed_vs_random(design.netlist, setup.lib, tvla_config);
    const std::size_t leaky = before.leaky_count();

    std::vector<std::string> row{design.name};
    for (std::size_t m = 0; m < 3; ++m) {
      const auto outcome = tools[m]->mask_design(design, setup.lib, leaky,
                                                 core::InferenceMode::kModel,
                                                 /*verify=*/true);
      const double reduction = bench::reduction_percent(
          before.total_abs_t(), outcome.verification->total_abs_t());
      sums[m] += reduction;
      row.push_back(util::format_double(reduction, 2));
    }
    table.add_row(std::move(row));
    ++rows;
  }

  const double n = static_cast<double>(rows);
  table.add_row({"Average", util::format_double(sums[0] / n, 2),
                 util::format_double(sums[1] / n, 2),
                 util::format_double(sums[2] / n, 2)});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\npaper shape: AdaBoost best on average (54.09%%), then "
              "XGBoost (51.49%%), then Random Forest (41.97%%).\n");
  return 0;
}
