#include "ml/decision_tree.hpp"

#include <numeric>

#include "serialize/model_io.hpp"

namespace polaris::ml {

void DecisionTree::fit(const Dataset& data) {
  ensemble_ = TreeEnsemble{};
  ensemble_.link = TreeEnsemble::Link::kIdentity;

  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  TreeConfig tree_config;
  tree_config.max_depth = config_.max_depth;
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.seed = config_.seed;
  ensemble_.trees.push_back(
      {TreeFitter(data, config_.lanes).classification_tree(indices, tree_config),
       1.0});
}

double DecisionTree::predict_margin(std::span<const double> x) const {
  return ensemble_.margin(x);  // leaf positive fraction
}

double DecisionTree::predict_proba(std::span<const double> x) const {
  return ensemble_.probability(x);
}

void DecisionTree::save(serialize::Writer& out) const {
  out.u32(1);  // class payload version
  out.u64(config_.max_depth);
  out.u64(config_.min_samples_leaf);
  out.u64(config_.seed);
  serialize::write_ensemble(out, ensemble_);
}

DecisionTree DecisionTree::load(serialize::Reader& in) {
  (void)in.u32();  // class payload version (appends-only policy)
  DecisionTreeConfig config;
  config.max_depth = in.u64();
  config.min_samples_leaf = in.u64();
  config.seed = in.u64();
  DecisionTree model(config);
  model.ensemble_ = serialize::read_ensemble(in);
  return model;
}

}  // namespace polaris::ml
