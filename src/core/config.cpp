#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "engine/thread_pool.hpp"
#include "netlist/netlist_io.hpp"
#include "util/hash.hpp"

namespace polaris::core {

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

namespace {

/// The config payload, for both directions. Version 1 is the pre-budget
/// layout; a config with the early-stop budget DISABLED still writes
/// version 1 byte-for-byte, so existing bundles, wire requests, and config
/// fingerprints are unchanged unless the feature is actually used.
/// Budget-enabled configs append their fields as version 2; a version-1
/// payload leaves them at their defaults (disabled).
template <class Io, class Config>
void config_fields(Io& io, Config& config) {
  std::uint32_t version = config.tvla.budget.enabled ? 2 : 1;
  io.u32(version);
  io.u64(config.mask_size);
  io.u64(config.locality);
  io.u64(config.iterations);
  io.f64(config.theta_r);
  io.u32_enum(config.model, ModelKind::kDecisionTree, "model kind");
  io.f64(config.learning_rate);
  io.u64(config.model_rounds);
  io.boolean(config.handle_imbalance);
  io.u64(config.tvla.traces);
  io.u64(config.tvla.warmup_cycles);
  io.u64(config.tvla.cycles_per_batch);
  io.f64(config.tvla.threshold);
  io.u64(config.tvla.seed);
  io.u64(config.tvla.threads);
  io.f64(config.tvla.noise_std_fj);
  io.seq(config.tvla.input_class, 1, [&](auto& input) {
    io.u8_enum(input, tvla::InputClass::kRandomCommon, "input class");
  });
  io.bool_vec(config.tvla.fixed_input);
  io.bool_vec(config.tvla.fixed_input_b);  // layout only: nothing reads it
  io.f64(config.min_leak_for_label);
  io.u32_enum(config.scheme, masking::Scheme::kDom, "masking scheme");
  io.f64(config.coherence_smoothing);
  io.u64(config.seed);
  io.u64(config.threads);
  if (version >= 2) {
    io.boolean(config.tvla.budget.enabled);
    io.u64(config.tvla.budget.min_traces);
    io.f64(config.tvla.budget.margin);
  }
}

template <class Io, class Design>
void design_fields(Io& io, Design& design) {
  io.str(design.name);
  io.seq(design.roles, 1, [&](auto& role) {
    io.u8_enum(role, circuits::InputRole::kControl, "input role");
  });
  io.nested(design.netlist, netlist::write_netlist, netlist::read_netlist);
}

}  // namespace

void write_config(serialize::Writer& out, const PolarisConfig& config) {
  config_fields(out, config);
}

PolarisConfig read_config(serialize::Reader& in) {
  PolarisConfig config;
  config_fields(in, config);
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
  return util::fnv1a(writer.bytes());
}

void write_design(serialize::Writer& out, const circuits::Design& design) {
  design_fields(out, design);
}

circuits::Design read_design(serialize::Reader& in) {
  circuits::Design design;
  design_fields(in, design);
  return design;
}

std::uint64_t design_fingerprint(const circuits::Design& design) {
  serialize::Writer writer;
  write_design(writer, design);
  return util::fnv1a(writer.bytes());
}

std::unique_ptr<ml::Model> make_model(const PolarisConfig& config) {
  ml::ModelConfig model;
  switch (config.model) {
    case ModelKind::kRandomForest:
      model = ml::ForestConfig{.trees = config.model_rounds / 4 + 20,
                               .max_depth = 8,
                               .seed = config.seed};
      break;
    case ModelKind::kXgboost:
      model = ml::GbdtConfig{.rounds = config.model_rounds,
                             .max_depth = 4,
                             .learning_rate = config.learning_rate,
                             .seed = config.seed};
      break;
    case ModelKind::kAdaBoost:
      // The SAMME stage weights tolerate a larger step than GBDT shrinkage;
      // the paper's 0.01 is honoured via `learning_rate` scaling.
      model = ml::AdaBoostConfig{
          .rounds = config.model_rounds,
          .max_depth = 2,
          .learning_rate = std::max(config.learning_rate, 0.01) * 50.0,
          .seed = config.seed};
      break;
    case ModelKind::kDecisionTree:
      model = ml::DecisionTreeConfig{.max_depth = 8, .seed = config.seed};
      break;
  }
  // The fit's lane count is an execution knob like `threads` itself: a
  // model never serializes it, so bundles do not depend on it.
  return std::make_unique<ml::Model>(
      model, engine::ThreadPool::resolve_threads(config.threads));
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
