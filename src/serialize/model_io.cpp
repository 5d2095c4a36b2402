#include "serialize/model_io.hpp"

#include <stdexcept>
#include <string>

#include "ml/adaboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/model.hpp"

namespace polaris::serialize {

void write_tree(Writer& out, const ml::Tree& tree) {
  out.u64(tree.nodes.size());
  for (const ml::TreeNode& node : tree.nodes) {
    out.i32(node.feature);
    out.f64(node.threshold);
    out.i32(node.left);
    out.i32(node.right);
    out.f64(node.value);
    out.f64(node.cover);
  }
}

ml::Tree read_tree(Reader& in) {
  ml::Tree tree;
  const std::uint64_t count = in.u64();
  tree.nodes.reserve(count < 1u << 20 ? count : 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    ml::TreeNode node;
    node.feature = in.i32();
    node.threshold = in.f64();
    node.left = in.i32();
    node.right = in.i32();
    node.value = in.f64();
    node.cover = in.f64();
    // Children must exist and come after their parent (creation order), so
    // prediction walks terminate even on adversarial input.
    if (!node.is_leaf()) {
      const auto limit = static_cast<std::int64_t>(count);
      if (node.left <= static_cast<std::int64_t>(i) || node.left >= limit ||
          node.right <= static_cast<std::int64_t>(i) || node.right >= limit) {
        throw std::runtime_error(
            "polaris archive: tree node " + std::to_string(i) +
            " has out-of-order children");
      }
    }
    tree.nodes.push_back(node);
  }
  return tree;
}

void write_ensemble(Writer& out, const ml::TreeEnsemble& ensemble) {
  out.u8(ensemble.link == ml::TreeEnsemble::Link::kLogistic ? 1 : 0);
  out.f64(ensemble.base);
  out.u64(ensemble.trees.size());
  for (const auto& wt : ensemble.trees) {
    out.f64(wt.weight);
    write_tree(out, wt.tree);
  }
}

ml::TreeEnsemble read_ensemble(Reader& in) {
  ml::TreeEnsemble ensemble;
  ensemble.link = in.u8() != 0 ? ml::TreeEnsemble::Link::kLogistic
                               : ml::TreeEnsemble::Link::kIdentity;
  ensemble.base = in.f64();
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const double weight = in.f64();
    ensemble.trees.push_back({read_tree(in), weight});
  }
  return ensemble;
}

void write_dataset(Writer& out, const ml::Dataset& data) {
  out.u64(data.size());
  out.u64(data.feature_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (const double v : data.row(i)) out.f64(v);
  }
  out.i32_vec(data.labels());
  out.f64_vec(data.weights());
}

ml::Dataset read_dataset(Reader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t width = in.u64();
  // Check-before-allocate: a lying length field must raise the layer's
  // clean error, not drive a giant allocation. (Legitimate data always
  // satisfies these - the labels vector alone needs 4 bytes per row.)
  if (width > in.remaining() / 8 ||
      (width == 0 ? rows > in.remaining()
                  : rows > in.remaining() / (8 * width))) {
    throw std::runtime_error("polaris archive: oversized dataset");
  }
  std::vector<std::vector<double>> features(rows);
  for (auto& row : features) {
    row.resize(width);
    for (auto& v : row) v = in.f64();
  }
  std::vector<int> labels = in.i32_vec();
  const std::vector<double> weights = in.f64_vec();
  if (labels.size() != rows || weights.size() != rows) {
    throw std::runtime_error("polaris archive: dataset row/label mismatch");
  }
  // A non-finite cell is a corrupt archive, reported as this layer's error.
  ml::Dataset data = [&] {
    try {
      return ml::Dataset(std::move(features), std::move(labels));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("polaris archive: ") + e.what());
    }
  }();
  for (std::size_t i = 0; i < weights.size(); ++i) data.set_weight(i, weights[i]);
  return data;
}

void write_ruleset(Writer& out, const xai::RuleSet& rules) {
  out.u64(rules.rules().size());
  for (const xai::Rule& rule : rules.rules()) {
    out.u64(rule.literals.size());
    for (const xai::Literal& lit : rule.literals) {
      out.u64(lit.feature);
      out.boolean(lit.positive);
    }
    out.i32(rule.action);
    out.u64(rule.support);
    out.f64(rule.precision);
  }
}

xai::RuleSet read_ruleset(Reader& in) {
  std::vector<xai::Rule> rules;
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    xai::Rule rule;
    const std::uint64_t literals = in.u64();
    for (std::uint64_t l = 0; l < literals; ++l) {
      xai::Literal lit;
      lit.feature = in.u64();
      lit.positive = in.boolean();
      rule.literals.push_back(lit);
    }
    rule.action = in.i32();
    rule.support = in.u64();
    rule.precision = in.f64();
    rules.push_back(std::move(rule));
  }
  return xai::RuleSet(std::move(rules));
}

}  // namespace polaris::serialize

namespace polaris::ml {

void save_classifier(serialize::Writer& out, const Classifier& model) {
  out.u32(static_cast<std::uint32_t>(model.kind()));
  model.save(out);
}

std::unique_ptr<Classifier> load_classifier(serialize::Reader& in) {
  const auto kind = static_cast<ClassifierKind>(in.u32());
  switch (kind) {
    case ClassifierKind::kDecisionTree:
      return std::make_unique<DecisionTree>(DecisionTree::load(in));
    case ClassifierKind::kRandomForest:
      return std::make_unique<RandomForest>(RandomForest::load(in));
    case ClassifierKind::kGbdt:
      return std::make_unique<Gbdt>(Gbdt::load(in));
    case ClassifierKind::kAdaBoost:
      return std::make_unique<AdaBoost>(AdaBoost::load(in));
  }
  throw std::runtime_error("polaris archive: unknown classifier kind " +
                           std::to_string(static_cast<std::uint32_t>(kind)));
}

}  // namespace polaris::ml
