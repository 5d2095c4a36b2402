#include "ml/forest.hpp"

#include <cmath>

#include "serialize/model_io.hpp"

namespace polaris::ml {

void RandomForest::fit(const Dataset& data) {
  ensemble_ = TreeEnsemble{};
  ensemble_.link = TreeEnsemble::Link::kIdentity;
  util::Xoshiro256 rng(config_.seed);

  std::size_t features_per_split = config_.features_per_split;
  if (features_per_split == 0) {
    features_per_split = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(data.feature_count()))));
  }

  const double tree_weight = 1.0 / static_cast<double>(config_.trees);
  std::vector<std::size_t> bootstrap(data.size());
  TreeFitter fitter(data, config_.lanes);
  for (std::size_t t = 0; t < config_.trees; ++t) {
    for (auto& index : bootstrap) index = rng.bounded(data.size());
    TreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.features_per_split = features_per_split;
    tree_config.seed = rng();
    ensemble_.trees.push_back(
        {fitter.classification_tree(bootstrap, tree_config), tree_weight});
  }
}

double RandomForest::predict_margin(std::span<const double> x) const {
  return ensemble_.margin(x);  // mean leaf probability
}

double RandomForest::predict_proba(std::span<const double> x) const {
  return ensemble_.probability(x);
}

template <class Io, class Self>
void RandomForest::fields(Io& io, Self& self) {
  std::uint32_t version = 1;  // class payload version (appends-only policy)
  io.u32(version);
  io.u64(self.config_.trees);
  io.u64(self.config_.max_depth);
  io.u64(self.config_.min_samples_leaf);
  io.u64(self.config_.features_per_split);
  io.u64(self.config_.seed);
  io.nested(self.ensemble_, serialize::write_ensemble,
            serialize::read_ensemble);
}

void RandomForest::save(serialize::Writer& out) const { fields(out, *this); }

RandomForest RandomForest::load(serialize::Reader& in) {
  RandomForest model;
  fields(in, model);
  return model;
}

}  // namespace polaris::ml
