#include "serialize/model_io.hpp"

#include <stdexcept>
#include <string>

namespace polaris::serialize {

namespace {

// Field lists, for both directions. Minimum entry sizes: a tree node is
// exactly 36 bytes, a weighted tree at least its weight and node count, a
// rule at least its literal count, action, support and precision, a
// literal exactly 9 bytes.

template <class Io, class Tree>
void tree_fields(Io& io, Tree& tree) {
  io.seq(tree.nodes, 36, [&](auto& node) {
    io.i32(node.feature);
    io.f64(node.threshold);
    io.i32(node.left);
    io.i32(node.right);
    io.f64(node.value);
    io.f64(node.cover);
  });
}

template <class Io, class Ensemble>
void ensemble_fields(Io& io, Ensemble& ensemble) {
  io.u8_enum(ensemble.link, ml::TreeEnsemble::Link::kLogistic, "ensemble link");
  io.f64(ensemble.base);
  io.seq(ensemble.trees, 16, [&](auto& weighted) {
    io.f64(weighted.weight);
    io.nested(weighted.tree, write_tree, read_tree);
  });
}

template <class Io, class Rules>
void rule_fields(Io& io, Rules& rules) {
  io.seq(rules, 28, [&](auto& rule) {
    io.seq(rule.literals, 9, [&](auto& literal) {
      io.u64(literal.feature);
      io.boolean(literal.positive);
    });
    io.i32(rule.action);
    io.u64(rule.support);
    io.f64(rule.precision);
  });
}

}  // namespace

void write_tree(Writer& out, const ml::Tree& tree) { tree_fields(out, tree); }

ml::Tree read_tree(Reader& in) {
  ml::Tree tree;
  tree_fields(in, tree);
  // Children must exist and come after their parent (creation order), so
  // prediction walks terminate even on adversarial input.
  const auto count = static_cast<std::int64_t>(tree.nodes.size());
  for (std::int64_t i = 0; i < count; ++i) {
    const ml::TreeNode& node = tree.nodes[static_cast<std::size_t>(i)];
    if (!node.is_leaf() && (node.left <= i || node.left >= count ||
                            node.right <= i || node.right >= count)) {
      throw std::runtime_error("polaris archive: tree node " +
                               std::to_string(i) +
                               " has out-of-order children");
    }
  }
  return tree;
}

void write_ensemble(Writer& out, const ml::TreeEnsemble& ensemble) {
  ensemble_fields(out, ensemble);
}

ml::TreeEnsemble read_ensemble(Reader& in) {
  ml::TreeEnsemble ensemble;
  ensemble_fields(in, ensemble);
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
  // Check-before-allocate on both counts: a row is its width in doubles
  // (legitimate data always fits - the labels alone need 4 bytes per row).
  in.check_count(width, 8);
  in.check_count(rows, width == 0 ? 1 : 8 * width);
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
  rule_fields(out, rules.rules());
}

xai::RuleSet read_ruleset(Reader& in) {
  std::vector<xai::Rule> rules;
  rule_fields(in, rules);
  return xai::RuleSet(std::move(rules));
}

}  // namespace polaris::serialize
