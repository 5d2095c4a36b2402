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

template <class Io, class Self>
void DecisionTree::fields(Io& io, Self& self) {
  std::uint32_t version = 1;  // class payload version (appends-only policy)
  io.u32(version);
  io.u64(self.config_.max_depth);
  io.u64(self.config_.min_samples_leaf);
  io.u64(self.config_.seed);
  io.nested(self.ensemble_, serialize::write_ensemble,
            serialize::read_ensemble);
}

void DecisionTree::save(serialize::Writer& out) const { fields(out, *this); }

DecisionTree DecisionTree::load(serialize::Reader& in) {
  DecisionTree model;
  fields(in, model);
  return model;
}

}  // namespace polaris::ml
