#include "ml/smote.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace polaris::ml {

namespace {

constexpr std::size_t kNeighbors = 5;
/// Neighbor search examines at most this many random minority candidates
/// per sample (exact k-NN above this size would be quadratic).
constexpr std::size_t kNeighborPool = 256;

}  // namespace

Dataset smote_oversample(const Dataset& data, std::uint64_t seed) {
  const std::size_t positives = data.positives();
  const std::size_t negatives = data.size() - positives;
  if (positives == 0 || negatives == 0) return data;
  const int minority_label = positives <= negatives ? 1 : 0;
  const std::size_t minority = std::min(positives, negatives);
  const std::size_t majority = std::max(positives, negatives);
  if (minority < 2 || minority == majority) return data;
  const std::size_t to_create = majority - minority;

  std::vector<std::size_t> minority_rows;
  minority_rows.reserve(minority);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.label(i) == minority_label) minority_rows.push_back(i);
  }

  util::Xoshiro256 rng(seed);
  const std::size_t dims = data.feature_count();

  const auto squared_distance = [&](std::size_t a, std::size_t b) {
    const auto ra = data.row(a);
    const auto rb = data.row(b);
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double delta = ra[d] - rb[d];
      sum += delta * delta;
    }
    return sum;
  };

  Dataset result = data;
  for (std::size_t n = 0; n < to_create; ++n) {
    const std::size_t anchor =
        minority_rows[rng.bounded(minority_rows.size())];

    // k nearest among a bounded random candidate pool.
    const std::size_t pool = std::min(kNeighborPool, minority_rows.size());
    std::vector<std::pair<double, std::size_t>> candidates;
    candidates.reserve(pool);
    for (std::size_t c = 0; c < pool; ++c) {
      const std::size_t row = minority_rows[rng.bounded(minority_rows.size())];
      if (row == anchor) continue;
      candidates.emplace_back(squared_distance(anchor, row), row);
    }
    if (candidates.empty()) continue;
    const std::size_t k = std::min(kNeighbors, candidates.size());
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(k),
                      candidates.end());
    const std::size_t neighbor =
        candidates[rng.bounded(k)].second;

    // Interpolate: anchor + u * (neighbor - anchor), u ~ U[0,1).
    const double u = rng.uniform();
    const auto ra = data.row(anchor);
    const auto rb = data.row(neighbor);
    std::vector<double> synthetic(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      synthetic[d] = ra[d] + u * (rb[d] - ra[d]);
    }
    result.add(std::move(synthetic), minority_label);
  }
  return result;
}

}  // namespace polaris::ml
