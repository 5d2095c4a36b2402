#include "ml/adaboost.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "serialize/model_io.hpp"

namespace polaris::ml {

void AdaBoost::fit(const Dataset& data) {
  ensemble_ = TreeEnsemble{};
  // Stage trees store leaf probabilities in [0,1]; the ensemble margin is
  // sum_t alpha_t * (2*p_t(x) - 1), expressed below by rebasing each stage:
  // weight alpha_t on the tree plus a -alpha_t/... constant absorbed in
  // `base`. The logistic link turns the margin into a probability.
  ensemble_.link = TreeEnsemble::Link::kLogistic;

  // Boosting weights live in a scratch dataset copy so the caller's weights
  // (e.g. class-balance weights) form the starting distribution.
  Dataset working = data;
  double total = 0.0;
  for (std::size_t i = 0; i < working.size(); ++i) total += working.weight(i);
  if (total <= 0.0) return;
  for (std::size_t i = 0; i < working.size(); ++i) {
    working.set_weight(i, working.weight(i) / total);
  }

  std::vector<std::size_t> all(working.size());
  std::iota(all.begin(), all.end(), 0);
  util::Xoshiro256 rng(config_.seed);
  TreeFitter fitter(working, config_.lanes);

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    TreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
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
        config_.learning_rate * 0.5 * std::log((1.0 - err) / err);

    // Margin contribution: alpha * (2*p - 1)  ==  (2*alpha)*tree - alpha.
    ensemble_.trees.push_back({std::move(tree), 2.0 * alpha});
    ensemble_.base -= alpha;

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
}

double AdaBoost::predict_margin(std::span<const double> x) const {
  return ensemble_.margin(x);
}

double AdaBoost::predict_proba(std::span<const double> x) const {
  return ensemble_.probability(x);
}

template <class Io, class Self>
void AdaBoost::fields(Io& io, Self& self) {
  std::uint32_t version = 1;  // class payload version (appends-only policy)
  io.u32(version);
  io.u64(self.config_.rounds);
  io.u64(self.config_.max_depth);
  io.f64(self.config_.learning_rate);
  io.u64(self.config_.min_samples_leaf);
  io.u64(self.config_.seed);
  io.nested(self.ensemble_, serialize::write_ensemble,
            serialize::read_ensemble);
}

void AdaBoost::save(serialize::Writer& out) const { fields(out, *this); }

AdaBoost AdaBoost::load(serialize::Reader& in) {
  AdaBoost model;
  fields(in, model);
  return model;
}

}  // namespace polaris::ml
