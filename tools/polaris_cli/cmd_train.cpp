// `polaris_cli train`: Algorithm 1 over the training suite, model fit, SHAP
// rule mining - then everything a serving process needs goes into one .plb
// bundle. The expensive step runs once; audit/mask/inspect reuse the file.
#include <cstdio>

#include "circuits/suite.hpp"
#include "cli.hpp"
#include "techlib/techlib.hpp"
#include "util/timer.hpp"

namespace polaris::cli {

int cmd_train(std::span<const char* const> args) {
  std::vector<FlagSpec> specs = config_flag_specs();
  specs.push_back({"out", true, "output bundle path (required), e.g. model.plb"});
  specs.push_back({"max-designs", true,
                   "train on only the first N suite designs (CI smoke runs)"});
  specs.push_back({"no-dataset", false,
                   "exclude the labelled training data from the bundle"});
  specs.push_back(trace_flag_spec());
  specs.push_back({"help", false, "show this help"});
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli train --out <bundle.plb> [flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }
  const TraceGuard trace(flags.get("trace"), "train");

  const std::string out_path = flags.require("out");
  const auto config = config_from_flags(flags);

  auto training = circuits::training_suite();
  const std::size_t max_designs =
      flags.get_size("max-designs", training.size());
  if (max_designs == 0) throw UsageError("--max-designs must be at least 1");
  if (training.size() > max_designs) training.resize(max_designs);

  const auto lib = techlib::TechLibrary::default_library();
  core::Polaris polaris(config);
  std::printf("training %s on %zu designs (itr=%zu, traces=%zu, Msize=%zu, "
              "theta_r=%.2f)...\n",
              ml::to_string(config.model).c_str(), training.size(),
              config.iterations, config.tvla.traces, config.mask_size,
              config.theta_r);
  util::Timer timer;
  const auto summary = polaris.train(training, lib);
  std::printf("  %zu labelled samples (%zu 'good mask') in %.1fs "
              "(Algorithm 1: %.1fs, fit: %.1fs, rules: %.1fs)\n",
              summary.samples, summary.positives, timer.seconds(),
              summary.dataset_seconds, summary.training_seconds,
              summary.rules_seconds);

  polaris.save_bundle(out_path, !flags.has("no-dataset"));
  const auto info = core::read_bundle_info(out_path);
  std::printf("wrote %s (model=%s, %zu rules, fingerprint=%016llx)\n",
              out_path.c_str(), info.model_name.c_str(), info.rule_count,
              static_cast<unsigned long long>(info.config_fingerprint));
  return 0;
}

}  // namespace polaris::cli
