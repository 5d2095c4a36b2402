#include "ml/split_table.hpp"

#include <algorithm>
#include <bit>

namespace polaris::ml {

SplitTable::SplitTable(const TreeEnsemble& ensemble) {
  std::vector<std::pair<std::int32_t, std::uint64_t>> conditions;
  std::size_t walk = 0;
  for (const auto& wt : ensemble.trees) {
    walk += wt.tree.depth();
    for (const TreeNode& node : wt.tree.nodes) {
      if (!node.is_leaf()) {
        conditions.emplace_back(node.feature,
                                std::bit_cast<std::uint64_t>(node.threshold));
      }
    }
  }
  // Feature order keeps a key's reads of x ascending.
  std::sort(conditions.begin(), conditions.end());
  conditions.erase(std::unique(conditions.begin(), conditions.end()),
                   conditions.end());
  features_.reserve(conditions.size());
  thresholds_.reserve(conditions.size());
  for (const auto& [feature, bits] : conditions) {
    features_.push_back(feature);
    thresholds_.push_back(std::bit_cast<double>(bits));
  }
  words_ = std::max<std::size_t>(1, (conditions.size() + 63) / 64);
  cheaper_than_walk_ = conditions.size() <= walk;
}

void SplitTable::key(std::span<const double> x,
                     std::span<std::uint64_t> key) const {
  std::fill(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(words_), 0);
  for (std::size_t c = 0; c < features_.size(); ++c) {
    const bool right =
        !(x[static_cast<std::size_t>(features_[c])] <= thresholds_[c]);
    key[c >> 6] |= static_cast<std::uint64_t>(right) << (c & 63);
  }
}

}  // namespace polaris::ml
