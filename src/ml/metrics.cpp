#include "ml/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

namespace polaris::ml {

double roc_auc(std::span<const double> scores, std::span<const int> labels) {
  // Rank-sum (Mann-Whitney) formulation with midranks for ties.
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

  double rank_sum_pos = 0.0;
  std::size_t positives = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (std::size_t k = i; k < j; ++k) {
      if (labels[order[k]] == 1) {
        rank_sum_pos += midrank;
        ++positives;
      }
    }
    i = j;
  }
  const std::size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(positives) *
                       (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

Metrics evaluate(const Model& model, const Dataset& data) {
  Metrics metrics;
  if (data.empty()) return metrics;
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  std::vector<double> scores(data.size());
  std::vector<int> labels(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    scores[i] = model.predict_proba(data.row(i));
    labels[i] = data.label(i);
    const int predicted = scores[i] >= 0.5 ? 1 : 0;
    if (predicted == 1 && labels[i] == 1) ++tp;
    else if (predicted == 1) ++fp;
    else if (labels[i] == 1) ++fn;
    else ++tn;
  }
  const double total = static_cast<double>(data.size());
  metrics.accuracy = static_cast<double>(tp + tn) / total;
  metrics.precision = (tp + fp) == 0 ? 0.0
                                     : static_cast<double>(tp) /
                                           static_cast<double>(tp + fp);
  metrics.recall = (tp + fn) == 0 ? 0.0
                                  : static_cast<double>(tp) /
                                        static_cast<double>(tp + fn);
  metrics.f1 = (metrics.precision + metrics.recall) == 0.0
                   ? 0.0
                   : 2.0 * metrics.precision * metrics.recall /
                         (metrics.precision + metrics.recall);
  metrics.auc = roc_auc(scores, labels);
  return metrics;
}

}  // namespace polaris::ml
