#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>

#include "serialize/model_io.hpp"

namespace polaris::ml {

void Gbdt::fit(const Dataset& data) {
  ensemble_ = TreeEnsemble{};
  ensemble_.link = TreeEnsemble::Link::kLogistic;

  // Base score: log-odds of the weighted positive rate.
  double w_pos = 0.0, w_total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    w_total += data.weight(i);
    if (data.label(i) == 1) w_pos += data.weight(i);
  }
  const double p0 = std::clamp(w_pos / std::max(w_total, 1e-12), 1e-6, 1.0 - 1e-6);
  ensemble_.base = std::log(p0 / (1.0 - p0));

  std::vector<double> margin(data.size(), ensemble_.base);
  std::vector<double> gradients(data.size());
  std::vector<double> hessians(data.size());
  TreeFitter fitter(data, config_.lanes);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double p = 1.0 / (1.0 + std::exp(-margin[i]));
      const double y = data.label(i) == 1 ? 1.0 : 0.0;
      const double w = data.weight(i);
      gradients[i] = w * (p - y);
      hessians[i] = w * std::max(p * (1.0 - p), 1e-12);
    }
    BoostTreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.lambda = config_.lambda;
    tree_config.gamma = config_.gamma;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    Tree tree = fitter.boost_tree(gradients, hessians, tree_config);

    for (std::size_t i = 0; i < data.size(); ++i) {
      margin[i] += config_.learning_rate * tree.predict(data.row(i));
    }
    ensemble_.trees.push_back({std::move(tree), config_.learning_rate});
  }
}

double Gbdt::predict_margin(std::span<const double> x) const {
  return ensemble_.margin(x);
}

double Gbdt::predict_proba(std::span<const double> x) const {
  return ensemble_.probability(x);
}

void Gbdt::save(serialize::Writer& out) const {
  out.u32(1);  // class payload version
  out.u64(config_.rounds);
  out.u64(config_.max_depth);
  out.f64(config_.learning_rate);
  out.f64(config_.lambda);
  out.f64(config_.gamma);
  out.u64(config_.min_samples_leaf);
  out.u64(config_.seed);
  serialize::write_ensemble(out, ensemble_);
}

Gbdt Gbdt::load(serialize::Reader& in) {
  (void)in.u32();  // class payload version (appends-only policy)
  GbdtConfig config;
  config.rounds = in.u64();
  config.max_depth = in.u64();
  config.learning_rate = in.f64();
  config.lambda = in.f64();
  config.gamma = in.f64();
  config.min_samples_leaf = in.u64();
  config.seed = in.u64();
  Gbdt model(config);
  model.ensemble_ = serialize::read_ensemble(in);
  return model;
}

}  // namespace polaris::ml
