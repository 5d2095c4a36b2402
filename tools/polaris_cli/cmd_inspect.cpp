// `polaris_cli inspect`: what exactly is in this bundle? Header metadata,
// the training config (and its fingerprint), ensemble shape, and - with
// --rules - the mined human-readable masking rules (paper Table V).
#include <algorithm>
#include <cstdio>

#include "cli.hpp"
#include "graph/features.hpp"
#include "util/strings.hpp"

namespace polaris::cli {

int cmd_inspect(std::span<const char* const> args) {
  const std::vector<FlagSpec> specs = {
      {"bundle", true, "trained .plb bundle (required)"},
      {"rules", false, "also dump the mined masking rules"},
      {"json", false, "emit a JSON object instead of text"},
      {"help", false, "show this help"},
  };
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli inspect --bundle <model.plb> [flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }

  const std::string path = flags.require("bundle");
  core::BundleInfo info;
  const auto polaris = core::Polaris::load_bundle(path, &info);
  const auto& config = polaris.config();
  const auto& ensemble = polaris.model().ensemble();

  std::size_t nodes = 0, max_depth = 0;
  for (const auto& wt : ensemble.trees) {
    nodes += wt.tree.nodes.size();
    max_depth = std::max(max_depth, wt.tree.depth());
  }

  if (flags.has("json")) {
    std::printf(
        "{\"path\":\"%s\",\"format_version\":%u,\"bundle_version\":%u,"
        "\"fingerprint\":\"%016llx\",\"model\":\"%s\",\"samples\":%zu,"
        "\"positives\":%zu,\"feature_dim\":%zu,\"rules\":%zu,"
        "\"has_dataset\":%s,\"trees\":%zu,\"nodes\":%zu,\"max_depth\":%zu,"
        "\"config\":{\"mask_size\":%zu,\"locality\":%zu,\"iterations\":%zu,"
        "\"theta_r\":%.3f,\"model_rounds\":%zu,\"learning_rate\":%.4f,"
        "\"traces\":%zu,\"seed\":%llu}}\n",
        util::json_escape(path).c_str(), info.format_version, info.bundle_version,
        static_cast<unsigned long long>(info.config_fingerprint),
        util::json_escape(info.model_name).c_str(), info.samples, info.positives,
        info.feature_dim, info.rule_count, info.has_dataset ? "true" : "false",
        ensemble.trees.size(), nodes, max_depth, config.mask_size,
        config.locality, config.iterations, config.theta_r,
        config.model_rounds, config.learning_rate, config.tvla.traces,
        static_cast<unsigned long long>(config.seed));
    return 0;
  }

  std::printf("=== %s ===\n", path.c_str());
  std::printf("format:       archive v%u, bundle v%u\n", info.format_version,
              info.bundle_version);
  std::printf("fingerprint:  %016llx (config hash; threads excluded)\n",
              static_cast<unsigned long long>(info.config_fingerprint));
  std::printf("model:        %s (%zu trees, %zu nodes, max depth %zu)\n",
              info.model_name.c_str(), ensemble.trees.size(), nodes, max_depth);
  std::printf("trained on:   %zu samples (%zu 'good mask'), %zu features\n",
              info.samples, info.positives, info.feature_dim);
  std::printf("rules:        %zu mined\n", info.rule_count);
  std::printf("dataset:      %s\n",
              info.has_dataset ? "embedded" : "not embedded");
  std::printf("config:       Msize=%zu L=%zu itr=%zu theta_r=%.2f "
              "rounds=%zu traces=%zu seed=%llu\n",
              config.mask_size, config.locality, config.iterations,
              config.theta_r, config.model_rounds, config.tvla.traces,
              static_cast<unsigned long long>(config.seed));

  if (flags.has("rules")) {
    const auto names =
        graph::FeatureSpec{config.locality}.feature_names();
    std::printf("\nmined masking rules (Table V format):\n");
    for (const auto& rule : polaris.rules().rules()) {
      std::printf("  %s\n", rule.to_string(names).c_str());
    }
  }
  return 0;
}

}  // namespace polaris::cli
