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

template <class Io, class Self>
void Gbdt::fields(Io& io, Self& self) {
  std::uint32_t version = 1;  // class payload version (appends-only policy)
  io.u32(version);
  io.u64(self.config_.rounds);
  io.u64(self.config_.max_depth);
  io.f64(self.config_.learning_rate);
  io.f64(self.config_.lambda);
  io.f64(self.config_.gamma);
  io.u64(self.config_.min_samples_leaf);
  io.u64(self.config_.seed);
  io.nested(self.ensemble_, serialize::write_ensemble,
            serialize::read_ensemble);
}

void Gbdt::save(serialize::Writer& out) const { fields(out, *this); }

Gbdt Gbdt::load(serialize::Reader& in) {
  Gbdt model;
  fields(in, model);
  return model;
}

}  // namespace polaris::ml
