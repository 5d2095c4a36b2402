#include "xai/treeshap.hpp"

#include <algorithm>

namespace polaris::xai {

using ml::Tree;
using ml::TreeEnsemble;
using ml::TreeNode;

namespace {

/// One unique feature on the current root-to-leaf path.
struct PathElement {
  int feature = -1;
  double zero_fraction = 1.0;  // share of permutations flowing here if excluded
  double one_fraction = 1.0;   // .. if included (0 or 1 for decision paths)
  double pweight = 0.0;        // permutation-weight polynomial coefficient
};

/// Grows the weight polynomial by one path element.
void extend_path(PathElement* path, std::size_t unique_depth,
                 double zero_fraction, double one_fraction, int feature) {
  path[unique_depth] = {feature, zero_fraction, one_fraction,
                        unique_depth == 0 ? 1.0 : 0.0};
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (std::size_t i = unique_depth; i-- > 0;) {
    path[i + 1].pweight +=
        one_fraction * path[i].pweight * (static_cast<double>(i) + 1.0) / d;
    path[i].pweight = zero_fraction * path[i].pweight *
                      (static_cast<double>(unique_depth - i)) / d;
  }
}

/// Removes element `index`, restoring the polynomial to its pre-extend state.
void unwind_path(PathElement* path, std::size_t unique_depth,
                 std::size_t index) {
  const double one_fraction = path[index].one_fraction;
  const double zero_fraction = path[index].zero_fraction;
  const double d = static_cast<double>(unique_depth) + 1.0;
  double next_one_portion = path[unique_depth].pweight;
  for (std::size_t i = unique_depth; i-- > 0;) {
    if (one_fraction != 0.0) {
      const double tmp = path[i].pweight;
      path[i].pweight = next_one_portion * d /
                        ((static_cast<double>(i) + 1.0) * one_fraction);
      next_one_portion = tmp - path[i].pweight * zero_fraction *
                                   static_cast<double>(unique_depth - i) / d;
    } else {
      path[i].pweight = path[i].pweight * d /
                        (zero_fraction * static_cast<double>(unique_depth - i));
    }
  }
  for (std::size_t i = index; i < unique_depth; ++i) {
    path[i].feature = path[i + 1].feature;
    path[i].zero_fraction = path[i + 1].zero_fraction;
    path[i].one_fraction = path[i + 1].one_fraction;
  }
}

/// Total permutation weight if element `index` were unwound (without
/// mutating the path).
double unwound_path_sum(const PathElement* path,
                        std::size_t unique_depth, std::size_t index) {
  const double one_fraction = path[index].one_fraction;
  const double zero_fraction = path[index].zero_fraction;
  const double d = static_cast<double>(unique_depth) + 1.0;
  double next_one_portion = path[unique_depth].pweight;
  double total = 0.0;
  for (std::size_t i = unique_depth; i-- > 0;) {
    if (one_fraction != 0.0) {
      const double tmp =
          next_one_portion * d / ((static_cast<double>(i) + 1.0) * one_fraction);
      total += tmp;
      next_one_portion = path[i].pweight -
                         tmp * zero_fraction *
                             static_cast<double>(unique_depth - i) / d;
    } else {
      total += path[i].pweight /
               (zero_fraction * static_cast<double>(unique_depth - i) / d);
    }
  }
  return total;
}

class TreeShap {
 public:
  // A node at depth d holds at most d + 1 path elements, and no node is
  // deeper than tree.depth(), since children come after their parents (the
  // fitter builds them so and model_io's reader refuses anything else). So
  // one segment per depth, of tree.depth() + 2 elements, holds every path.
  TreeShap(const Tree& tree, std::span<const double> x, std::vector<double>& phi)
      : tree_(tree),
        x_(x),
        phi_(phi),
        stride_(tree.depth() + 2),
        paths_(stride_ * stride_) {}

  void run() { recurse(0, paths_.data(), 0, 1.0, 1.0, -1); }

 private:
  /// `path` is this node's segment of paths_; its children use the next.
  void recurse(std::size_t node_id, PathElement* path, std::size_t unique_depth,
               double parent_zero_fraction, double parent_one_fraction,
               int parent_feature) {
    extend_path(path, unique_depth, parent_zero_fraction, parent_one_fraction,
                parent_feature);
    const TreeNode& node = tree_.nodes[node_id];

    if (node.is_leaf()) {
      for (std::size_t i = 1; i <= unique_depth; ++i) {
        const double w = unwound_path_sum(path, unique_depth, i);
        const PathElement& el = path[i];
        phi_[static_cast<std::size_t>(el.feature)] +=
            w * (el.one_fraction - el.zero_fraction) * node.value;
      }
      return;
    }

    const auto feature = static_cast<std::size_t>(node.feature);
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    const bool go_left = x_[feature] <= node.threshold;
    const std::size_t hot = go_left ? left : right;
    const std::size_t cold = go_left ? right : left;

    const double cover = tree_.nodes[node_id].cover;
    const double hot_zero = cover > 0.0 ? tree_.nodes[hot].cover / cover : 0.0;
    const double cold_zero = cover > 0.0 ? tree_.nodes[cold].cover / cover : 0.0;

    double incoming_zero = 1.0;
    double incoming_one = 1.0;
    // If this feature is already on the path, undo its previous element and
    // merge the fractions (each unique feature appears once).
    std::size_t k = 1;
    for (; k <= unique_depth; ++k) {
      if (path[k].feature == node.feature) break;
    }
    if (k <= unique_depth) {
      incoming_zero = path[k].zero_fraction;
      incoming_one = path[k].one_fraction;
      unwind_path(path, unique_depth, k);
      --unique_depth;
    }

    // Each child extends its own copy of this node's path.
    PathElement* child = path + stride_;
    std::copy_n(path, unique_depth + 1, child);
    recurse(hot, child, unique_depth + 1, hot_zero * incoming_zero,
            incoming_one, node.feature);
    std::copy_n(path, unique_depth + 1, child);
    recurse(cold, child, unique_depth + 1, cold_zero * incoming_zero, 0.0,
            node.feature);
  }

  const Tree& tree_;
  std::span<const double> x_;
  std::vector<double>& phi_;
  std::size_t stride_;
  std::vector<PathElement> paths_;  // one segment of stride_ per depth
};

double tree_expected_value(const Tree& tree) {
  // Cover-weighted mean over leaves == expectation under the training
  // distribution the covers encode. Computed iteratively via node shares.
  if (tree.nodes.empty()) return 0.0;
  std::vector<double> share(tree.nodes.size(), 0.0);
  share[0] = 1.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const TreeNode& node = tree.nodes[i];
    if (node.is_leaf()) {
      mean += share[i] * node.value;
      continue;
    }
    const double cover = node.cover;
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    if (cover > 0.0) {
      share[left] += share[i] * tree.nodes[left].cover / cover;
      share[right] += share[i] * tree.nodes[right].cover / cover;
    } else {
      share[left] += share[i] * 0.5;
      share[right] += share[i] * 0.5;
    }
  }
  return mean;
}

}  // namespace

double expected_value(const TreeEnsemble& ensemble) {
  double value = ensemble.base;
  for (const auto& wt : ensemble.trees) {
    value += wt.weight * tree_expected_value(wt.tree);
  }
  return value;
}

std::vector<double> tree_shap(const Tree& tree, std::span<const double> x,
                              std::size_t feature_count) {
  std::vector<double> phi(feature_count, 0.0);
  if (tree.nodes.empty()) return phi;
  if (tree.nodes[0].is_leaf()) return phi;  // constant tree: nothing to credit
  TreeShap(tree, x, phi).run();
  return phi;
}

std::vector<double> tree_shap(const TreeEnsemble& ensemble,
                              std::span<const double> x) {
  std::vector<double> phi(x.size(), 0.0);
  for (const auto& wt : ensemble.trees) {
    const auto tree_phi = tree_shap(wt.tree, x, x.size());
    for (std::size_t f = 0; f < phi.size(); ++f) {
      phi[f] += wt.weight * tree_phi[f];
    }
  }
  return phi;
}

}  // namespace polaris::xai
