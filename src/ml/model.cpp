#include "ml/model.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "serialize/model_io.hpp"

namespace polaris::ml {

namespace {

/// One row per ModelKind, in its order.
struct KindRow {
  std::uint32_t tag;  // MODL's on-disk kind tag (bundle format: never renumber)
  const char* name;
  ModelConfig defaults;
};

constexpr KindRow kKinds[] = {
    {2, "RandomForest", ForestConfig{}},
    {3, "XGBoost", GbdtConfig{}},
    {4, "AdaBoost", AdaBoostConfig{}},
    {1, "DecisionTree", DecisionTreeConfig{}},
};
static_assert([] {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (kKinds[i].defaults.index() != i) return false;
  }
  return std::size(kKinds) == std::variant_size_v<ModelConfig>;
}());

/// The only MODL payload version; a reader refuses any other.
constexpr std::uint32_t kPayloadVersion = 1;

TreeEnsemble fit_ensemble(const ForestConfig& config, const Dataset& data,
                          std::size_t lanes) {
  TreeEnsemble ensemble;
  ensemble.link = TreeEnsemble::Link::kIdentity;
  util::Xoshiro256 rng(config.seed);

  std::size_t features_per_split = config.features_per_split;
  if (features_per_split == 0) {
    features_per_split = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(data.feature_count()))));
  }

  const double tree_weight = 1.0 / static_cast<double>(config.trees);
  std::vector<std::size_t> bootstrap(data.size());
  TreeFitter fitter(data, lanes);
  for (std::size_t t = 0; t < config.trees; ++t) {
    for (auto& index : bootstrap) index = rng.bounded(data.size());
    TreeConfig tree_config;
    tree_config.max_depth = config.max_depth;
    tree_config.min_samples_leaf = config.min_samples_leaf;
    tree_config.features_per_split = features_per_split;
    tree_config.seed = rng();
    ensemble.trees.push_back(
        {fitter.classification_tree(bootstrap, tree_config), tree_weight});
  }
  return ensemble;
}

TreeEnsemble fit_ensemble(const GbdtConfig& config, const Dataset& data,
                          std::size_t lanes) {
  TreeEnsemble ensemble;
  ensemble.link = TreeEnsemble::Link::kLogistic;

  // Base score: log-odds of the weighted positive rate.
  double w_pos = 0.0, w_total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    w_total += data.weight(i);
    if (data.label(i) == 1) w_pos += data.weight(i);
  }
  const double p0 = std::clamp(w_pos / std::max(w_total, 1e-12), 1e-6, 1.0 - 1e-6);
  ensemble.base = std::log(p0 / (1.0 - p0));

  std::vector<double> margin(data.size(), ensemble.base);
  std::vector<double> gradients(data.size());
  std::vector<double> hessians(data.size());
  TreeFitter fitter(data, lanes);

  for (std::size_t round = 0; round < config.rounds; ++round) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double p = 1.0 / (1.0 + std::exp(-margin[i]));
      const double y = data.label(i) == 1 ? 1.0 : 0.0;
      const double w = data.weight(i);
      gradients[i] = w * (p - y);
      hessians[i] = w * std::max(p * (1.0 - p), 1e-12);
    }
    BoostTreeConfig tree_config;
    tree_config.max_depth = config.max_depth;
    tree_config.lambda = config.lambda;
    tree_config.gamma = config.gamma;
    tree_config.min_samples_leaf = config.min_samples_leaf;
    Tree tree = fitter.boost_tree(gradients, hessians, tree_config);

    for (std::size_t i = 0; i < data.size(); ++i) {
      margin[i] += config.learning_rate * tree.predict(data.row(i));
    }
    ensemble.trees.push_back({std::move(tree), config.learning_rate});
  }
  return ensemble;
}

TreeEnsemble fit_ensemble(const AdaBoostConfig& config, const Dataset& data,
                          std::size_t lanes) {
  TreeEnsemble ensemble;
  // Stage trees store leaf probabilities in [0,1]; the ensemble margin is
  // sum_t alpha_t * (2*p_t(x) - 1), expressed below by rebasing each stage:
  // weight alpha_t on the tree plus a -alpha_t/... constant absorbed in
  // `base`. The logistic link turns the margin into a probability.
  ensemble.link = TreeEnsemble::Link::kLogistic;

  // Boosting weights live in a scratch dataset copy so the caller's weights
  // (e.g. class-balance weights) form the starting distribution.
  Dataset working = data;
  double total = 0.0;
  for (std::size_t i = 0; i < working.size(); ++i) total += working.weight(i);
  if (total <= 0.0) return ensemble;
  for (std::size_t i = 0; i < working.size(); ++i) {
    working.set_weight(i, working.weight(i) / total);
  }

  std::vector<std::size_t> all(working.size());
  std::iota(all.begin(), all.end(), 0);
  util::Xoshiro256 rng(config.seed);
  TreeFitter fitter(working, lanes);

  for (std::size_t round = 0; round < config.rounds; ++round) {
    TreeConfig tree_config;
    tree_config.max_depth = config.max_depth;
    tree_config.min_samples_leaf = config.min_samples_leaf;
    tree_config.seed = rng();
    Tree tree = fitter.classification_tree(all, tree_config);

    // Weighted error of the hard prediction.
    double err = 0.0;
    std::vector<int> predicted(working.size());
    for (std::size_t i = 0; i < working.size(); ++i) {
      predicted[i] = tree.predict(working.row(i)) >= 0.5 ? 1 : 0;
      if (predicted[i] != working.label(i)) err += working.weight(i);
    }
    err = std::clamp(err, 1e-10, 1.0 - 1e-10);
    if (err >= 0.5) break;  // weak learner no better than chance: stop
    const double alpha =
        config.learning_rate * 0.5 * std::log((1.0 - err) / err);

    // Margin contribution: alpha * (2*p - 1)  ==  (2*alpha)*tree - alpha.
    ensemble.trees.push_back({std::move(tree), 2.0 * alpha});
    ensemble.base -= alpha;

    // Re-weight: up-weight mistakes, down-weight hits, renormalize.
    double z = 0.0;
    for (std::size_t i = 0; i < working.size(); ++i) {
      const double sign = predicted[i] == working.label(i) ? -1.0 : 1.0;
      const double w = working.weight(i) * std::exp(sign * alpha);
      working.set_weight(i, w);
      z += w;
    }
    for (std::size_t i = 0; i < working.size(); ++i) {
      working.set_weight(i, working.weight(i) / z);
    }
  }
  return ensemble;
}

TreeEnsemble fit_ensemble(const DecisionTreeConfig& config, const Dataset& data,
                          std::size_t lanes) {
  TreeEnsemble ensemble;
  ensemble.link = TreeEnsemble::Link::kIdentity;

  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  TreeConfig tree_config;
  tree_config.max_depth = config.max_depth;
  tree_config.min_samples_leaf = config.min_samples_leaf;
  tree_config.seed = config.seed;
  ensemble.trees.push_back(
      {TreeFitter(data, lanes).classification_tree(indices, tree_config), 1.0});
  return ensemble;
}

/// The MODL payload after the kind tag, for both directions.
template <class Io, class Config, class Ensemble>
void payload_fields(Io& io, Config& config, Ensemble& ensemble) {
  std::uint32_t version = kPayloadVersion;
  io.u32(version);
  if (version != kPayloadVersion) {
    throw std::runtime_error("polaris archive: model payload version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kPayloadVersion) + ")");
  }
  std::visit(
      [&](auto& c) {
        using Kind = std::remove_cvref_t<decltype(c)>;
        if constexpr (std::is_same_v<Kind, ForestConfig>) {
          io.u64(c.trees);
          io.u64(c.max_depth);
          io.u64(c.min_samples_leaf);
          io.u64(c.features_per_split);
        } else if constexpr (std::is_same_v<Kind, GbdtConfig>) {
          io.u64(c.rounds);
          io.u64(c.max_depth);
          io.f64(c.learning_rate);
          io.f64(c.lambda);
          io.f64(c.gamma);
          io.u64(c.min_samples_leaf);
        } else if constexpr (std::is_same_v<Kind, AdaBoostConfig>) {
          io.u64(c.rounds);
          io.u64(c.max_depth);
          io.f64(c.learning_rate);
          io.u64(c.min_samples_leaf);
        } else {  // DecisionTreeConfig
          io.u64(c.max_depth);
          io.u64(c.min_samples_leaf);
        }
        io.u64(c.seed);  // every kind's fields end with its seed
      },
      config);
  io.nested(ensemble, serialize::write_ensemble, serialize::read_ensemble);
}

}  // namespace

std::string to_string(ModelKind kind) {
  return kKinds[static_cast<std::size_t>(kind)].name;
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

void Model::fit(const Dataset& data) {
  ensemble_ = std::visit(
      [&](const auto& config) { return fit_ensemble(config, data, lanes_); },
      config_);
}

void Model::save(serialize::Writer& out) const {
  out.u32(kKinds[config_.index()].tag);
  payload_fields(out, config_, ensemble_);
}

Model Model::load(serialize::Reader& in) {
  const std::uint32_t tag = in.u32();
  const auto* row =
      std::find_if(std::begin(kKinds), std::end(kKinds),
                   [&](const KindRow& kind) { return kind.tag == tag; });
  if (row == std::end(kKinds)) {
    throw std::runtime_error("polaris archive: unknown model kind " +
                             std::to_string(tag));
  }
  Model model(row->defaults);
  payload_fields(in, model.config_, model.ensemble_);
  return model;
}

}  // namespace polaris::ml
