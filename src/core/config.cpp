#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <sstream>
#include <stdexcept>

#include "ml/adaboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "netlist/netlist_io.hpp"

namespace polaris::core {

namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64
  for (const std::uint8_t byte : bytes) {
    hash = (hash ^ byte) * 1099511628211ULL;
  }
  return hash;
}

}  // namespace

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest: return "RandomForest";
    case ModelKind::kXgboost: return "XGBoost";
    case ModelKind::kAdaBoost: return "AdaBoost";
    case ModelKind::kDecisionTree: return "DecisionTree";
  }
  return "?";
}

ModelKind model_kind_from_string(const std::string& name) {
  std::string key;
  for (const char c : name) {
    if (c != '-' && c != '_') key.push_back(static_cast<char>(std::tolower(
        static_cast<unsigned char>(c))));
  }
  if (key == "adaboost" || key == "ada") return ModelKind::kAdaBoost;
  if (key == "randomforest" || key == "forest" || key == "rf") {
    return ModelKind::kRandomForest;
  }
  if (key == "xgboost" || key == "gbdt" || key == "xgb") {
    return ModelKind::kXgboost;
  }
  if (key == "decisiontree" || key == "tree" || key == "dt") {
    return ModelKind::kDecisionTree;
  }
  throw std::invalid_argument(
      "unknown model '" + name +
      "'; expected adaboost, forest (rf), xgboost (gbdt), or tree (dt)");
}

void validate(const PolarisConfig& config) {
  std::vector<std::string> problems;
  const auto complain = [&](const std::string& text) { problems.push_back(text); };

  // Range checks are written as negated intervals so NaN (which fails every
  // comparison) lands in the error branch instead of slipping through.
  if (!(config.theta_r >= 0.0 && config.theta_r <= 1.0)) {
    complain("theta_r = " + std::to_string(config.theta_r) +
             " (the good-mask leakage-reduction ratio must lie in [0, 1])");
  }
  if (config.iterations == 0) {
    complain("iterations = 0 (Algorithm 1 needs at least one "
             "random-insertion iteration per training design)");
  }
  if (config.mask_size == 0) {
    complain("mask_size = 0 (each iteration must mask at least one gate)");
  }
  if (config.locality == 0) {
    complain("locality = 0 (the structural features need at least one BFS "
             "neighbor; the paper uses L = 7)");
  }
  if (config.model_rounds == 0) {
    complain("model_rounds = 0 (the ensemble needs at least one round/tree)");
  }
  if (!(config.learning_rate > 0.0) || !std::isfinite(config.learning_rate)) {
    complain("learning_rate = " + std::to_string(config.learning_rate) +
             " (boosted models need a positive step size)");
  }
  if (config.tvla.traces == 0 || config.tvla.traces % 64 != 0) {
    complain("tvla.traces = " + std::to_string(config.tvla.traces) +
             " (must be a positive multiple of 64: the simulator runs "
             "64-lane bit-parallel batches)");
  }
  if (config.tvla.cycles_per_batch == 0) {
    complain("tvla.cycles_per_batch = 0 (sequential designs need at least "
             "one sampled cycle per batch)");
  }
  if (!(config.tvla.threshold > 0.0) || !std::isfinite(config.tvla.threshold)) {
    complain("tvla.threshold = " + std::to_string(config.tvla.threshold) +
             " (the |t| leakage threshold must be positive; TVLA uses 4.5)");
  }
  if (!(config.tvla.noise_std_fj >= 0.0) ||
      !std::isfinite(config.tvla.noise_std_fj)) {
    complain("tvla.noise_std_fj = " + std::to_string(config.tvla.noise_std_fj) +
             " (the noise floor is a standard deviation; it cannot be "
             "negative)");
  }
  if (config.tvla.budget.enabled) {
    if (config.tvla.budget.min_traces == 0) {
      complain("tvla.budget.min_traces = 0 (the first early-stop checkpoint "
               "needs a positive trace floor)");
    }
    if (!(config.tvla.budget.margin >= 0.0) ||
        !std::isfinite(config.tvla.budget.margin)) {
      complain("tvla.budget.margin = " +
               std::to_string(config.tvla.budget.margin) +
               " (the early-stop decision margin cannot be negative)");
    }
  }
  if (!(config.coherence_smoothing >= 0.0 &&
        config.coherence_smoothing <= 1.0)) {
    complain("coherence_smoothing = " +
             std::to_string(config.coherence_smoothing) +
             " (the neighbor-blend factor must lie in [0, 1]; 0 disables it)");
  }
  if (!(config.min_leak_for_label >= 0.0) ||
      !std::isfinite(config.min_leak_for_label)) {
    complain("min_leak_for_label = " +
             std::to_string(config.min_leak_for_label) +
             " (the pre-masking |t| floor cannot be negative)");
  }

  if (!problems.empty()) {
    std::ostringstream message;
    message << "invalid PolarisConfig (" << problems.size() << " problem"
            << (problems.size() == 1 ? "" : "s") << "):";
    for (const auto& problem : problems) message << "\n  - " << problem;
    throw std::invalid_argument(message.str());
  }
}

void write_config(serialize::Writer& out, const PolarisConfig& config) {
  // Version 1 is the pre-budget layout; a config with the early-stop
  // budget DISABLED still writes version 1 byte-for-byte, so existing
  // bundles, wire requests, and config fingerprints are unchanged unless
  // the feature is actually used (fingerprint-affecting only when
  // enabled). Budget-enabled configs append their fields as version 2.
  const bool versioned = config.tvla.budget.enabled;
  out.u32(versioned ? 2 : 1);  // config payload version
  out.u64(config.mask_size);
  out.u64(config.locality);
  out.u64(config.iterations);
  out.f64(config.theta_r);
  out.u32(static_cast<std::uint32_t>(config.model));
  out.f64(config.learning_rate);
  out.u64(config.model_rounds);
  out.boolean(config.handle_imbalance);
  out.u64(config.tvla.traces);
  out.u64(config.tvla.warmup_cycles);
  out.u64(config.tvla.cycles_per_batch);
  out.f64(config.tvla.threshold);
  out.u64(config.tvla.seed);
  out.u64(config.tvla.threads);
  out.f64(config.tvla.noise_std_fj);
  std::vector<std::uint8_t> classes;
  classes.reserve(config.tvla.input_class.size());
  for (const auto c : config.tvla.input_class) {
    classes.push_back(static_cast<std::uint8_t>(c));
  }
  out.u8_vec(classes);
  out.bool_vec(config.tvla.fixed_input);
  out.bool_vec(config.tvla.fixed_input_b);
  out.f64(config.min_leak_for_label);
  out.u32(static_cast<std::uint32_t>(config.scheme));
  out.f64(config.coherence_smoothing);
  out.u64(config.seed);
  out.u64(config.threads);
  if (versioned) {
    out.boolean(config.tvla.budget.enabled);
    out.u64(config.tvla.budget.min_traces);
    out.f64(config.tvla.budget.margin);
  }
}

PolarisConfig read_config(serialize::Reader& in) {
  // Appends-only policy: version 2 adds the early-stop budget fields at
  // the end; a version-1 payload leaves them at their defaults (disabled).
  const std::uint32_t version = in.u32();
  PolarisConfig config;
  config.mask_size = in.u64();
  config.locality = in.u64();
  config.iterations = in.u64();
  config.theta_r = in.f64();
  const std::uint32_t model_raw = in.u32();
  if (model_raw > static_cast<std::uint32_t>(ModelKind::kDecisionTree)) {
    throw std::runtime_error("polaris archive: unknown model kind " +
                             std::to_string(model_raw));
  }
  config.model = static_cast<ModelKind>(model_raw);
  config.learning_rate = in.f64();
  config.model_rounds = in.u64();
  config.handle_imbalance = in.boolean();
  config.tvla.traces = in.u64();
  config.tvla.warmup_cycles = in.u64();
  config.tvla.cycles_per_batch = in.u64();
  config.tvla.threshold = in.f64();
  config.tvla.seed = in.u64();
  config.tvla.threads = in.u64();
  config.tvla.noise_std_fj = in.f64();
  config.tvla.input_class.clear();
  for (const std::uint8_t c : in.u8_vec()) {
    config.tvla.input_class.push_back(static_cast<tvla::InputClass>(c));
  }
  config.tvla.fixed_input = in.bool_vec();
  config.tvla.fixed_input_b = in.bool_vec();
  config.min_leak_for_label = in.f64();
  const std::uint32_t scheme_raw = in.u32();
  if (scheme_raw > static_cast<std::uint32_t>(masking::Scheme::kDom)) {
    throw std::runtime_error("polaris archive: unknown masking scheme " +
                             std::to_string(scheme_raw));
  }
  config.scheme = static_cast<masking::Scheme>(scheme_raw);
  config.coherence_smoothing = in.f64();
  config.seed = in.u64();
  config.threads = in.u64();
  if (version >= 2) {
    config.tvla.budget.enabled = in.boolean();
    config.tvla.budget.min_traces = in.u64();
    config.tvla.budget.margin = in.f64();
  }
  return config;
}

std::uint64_t config_fingerprint(const PolarisConfig& config) {
  // Thread counts never change results (DESIGN.md determinism contract), so
  // they are excluded: the fingerprint identifies *what* was computed.
  PolarisConfig canonical = config;
  canonical.threads = 0;
  canonical.tvla.threads = 0;
  serialize::Writer writer;
  write_config(writer, canonical);
  return fnv1a(writer.bytes());
}

std::uint64_t design_fingerprint(const circuits::Design& design) {
  serialize::Writer writer;
  writer.str(design.name);
  writer.u64(design.roles.size());
  for (const auto role : design.roles) {
    writer.u8(static_cast<std::uint8_t>(role));
  }
  netlist::write_netlist(writer, design.netlist);
  return fnv1a(writer.bytes());
}

std::unique_ptr<ml::Classifier> make_model(const PolarisConfig& config) {
  switch (config.model) {
    case ModelKind::kRandomForest: {
      ml::ForestConfig forest;
      forest.trees = config.model_rounds / 4 + 20;
      forest.max_depth = 8;
      forest.seed = config.seed;
      return std::make_unique<ml::RandomForest>(forest);
    }
    case ModelKind::kXgboost: {
      ml::GbdtConfig gbdt;
      gbdt.rounds = config.model_rounds;
      gbdt.max_depth = 4;
      gbdt.learning_rate = config.learning_rate;
      gbdt.seed = config.seed;
      return std::make_unique<ml::Gbdt>(gbdt);
    }
    case ModelKind::kAdaBoost: {
      ml::AdaBoostConfig ada;
      ada.rounds = config.model_rounds;
      ada.max_depth = 2;
      // The SAMME stage weights tolerate a larger step than GBDT shrinkage;
      // the paper's 0.01 is honoured via `learning_rate` scaling.
      ada.learning_rate = std::max(config.learning_rate, 0.01) * 50.0;
      ada.seed = config.seed;
      return std::make_unique<ml::AdaBoost>(ada);
    }
    case ModelKind::kDecisionTree: {
      ml::DecisionTreeConfig tree;
      tree.max_depth = 8;
      tree.seed = config.seed;
      return std::make_unique<ml::DecisionTree>(tree);
    }
  }
  return nullptr;
}

std::vector<tvla::InputClass> input_classes_for(const circuits::Design& design) {
  std::vector<tvla::InputClass> classes;
  classes.reserve(design.roles.size());
  for (const auto role : design.roles) {
    switch (role) {
      case circuits::InputRole::kData:
        classes.push_back(tvla::InputClass::kSensitive);
        break;
      case circuits::InputRole::kKey:
        classes.push_back(tvla::InputClass::kFixedCommon);
        break;
      case circuits::InputRole::kControl:
        classes.push_back(tvla::InputClass::kRandomCommon);
        break;
    }
  }
  return classes;
}

tvla::TvlaConfig tvla_config_for(const PolarisConfig& config,
                                 const circuits::Design& design) {
  tvla::TvlaConfig tvla = config.tvla;
  if (config.threads != 0) tvla.threads = config.threads;
  if (!design.roles.empty()) tvla.input_class = input_classes_for(design);
  return tvla;
}

}  // namespace polaris::core
