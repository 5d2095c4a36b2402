#include "ml/tree.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "engine/thread_pool.hpp"

namespace polaris::ml {

double Tree::predict(std::span<const double> x) const {
  std::size_t node = 0;
  while (!nodes[node].is_leaf()) {
    const TreeNode& n = nodes[node];
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right);
  }
  return nodes[node].value;
}

std::size_t Tree::depth() const {
  // Iterative depth via parallel depth array (nodes are in creation order,
  // children always after parents).
  std::vector<std::size_t> depth(nodes.size(), 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_leaf()) {
      depth[static_cast<std::size_t>(nodes[i].left)] = depth[i] + 1;
      depth[static_cast<std::size_t>(nodes[i].right)] = depth[i] + 1;
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

std::size_t Tree::leaf_count() const {
  std::size_t count = 0;
  for (const auto& node : nodes) count += node.is_leaf() ? 1 : 0;
  return count;
}

double TreeEnsemble::margin(std::span<const double> x) const {
  double sum = base;
  for (const auto& wt : trees) sum += wt.weight * wt.tree.predict(x);
  return sum;
}

double TreeEnsemble::probability(std::span<const double> x) const {
  const double m = margin(x);
  if (link == Link::kLogistic) return 1.0 / (1.0 + std::exp(-m));
  return std::clamp(m, 0.0, 1.0);
}

namespace {

/// A candidate split produced by the scan below.
struct Split {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double score = 0.0;  // larger is better; comparable within one node only
};

/// Per-sample payload for split scanning: a feature value and two
/// accumulands. Classification uses (w0, w1) = weight by class; boosting
/// uses (g, h) = gradient, hessian.
struct Sample {
  double value;
  double a;
  double b;
};

/// A row's two accumulands, computed once per node.
struct Payload {
  double a;
  double b;
};

/// One histogram bin: the accumulands and sample count of a node's rows
/// whose feature value falls in the bin.
struct BinSum {
  double a = 0.0;
  double b = 0.0;
  std::size_t count = 0;
};

/// Most distinct values a node may show for one feature before the scan
/// stops bucketing and sorts the node's samples instead.
constexpr std::size_t kMaxBuckets = 24;
/// Most distinct values a feature may have across the dataset and still get
/// a one-byte bin per row.
constexpr std::size_t kMaxBins = 256;
/// Binned features accumulated by one pass over a node's rows.
constexpr std::size_t kGroup = 8;
/// Node rows x scanned features below which a node's scan stays on the
/// calling thread: smaller nodes take less time than a pool dispatch.
constexpr std::size_t kParallelWork = std::size_t{1} << 16;

/// Offers one threshold to `best`. Thresholds arrive in ascending order and
/// only a strictly larger score replaces the incumbent, so the first
/// maximum wins.
template <typename ScoreFn>
void consider(Split& best, double threshold, double al, double bl,
              std::size_t nl, double ar, double br, std::size_t nr,
              std::size_t min_leaf, const ScoreFn& score_children) {
  if (nl < min_leaf || nr < min_leaf) return;
  const double score = score_children(al, bl, nl, ar, br, nr);
  if (!best.found || score > best.score) {
    best.found = true;
    best.threshold = threshold;
    best.score = score;
  }
}

/// The bucket sweep: `buckets` distinct values in ascending order with the
/// sums their samples accumulated. Sums the right side once, then moves one
/// bucket at a time to the left and scores the threshold halfway to the
/// next value.
template <typename ScoreFn>
Split sweep_buckets(const double* values, const BinSum* sums,
                    std::size_t buckets, std::int32_t feature,
                    std::size_t min_leaf, const ScoreFn& score_children) {
  Split best;
  best.feature = feature;
  if (buckets < 2) return best;
  double al = 0.0, bl = 0.0;
  std::size_t nl = 0;
  double ar = 0.0, br = 0.0;
  std::size_t nr = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    ar += sums[i].a;
    br += sums[i].b;
    nr += sums[i].count;
  }
  for (std::size_t i = 0; i + 1 < buckets; ++i) {
    al += sums[i].a;
    bl += sums[i].b;
    nl += sums[i].count;
    ar -= sums[i].a;
    br -= sums[i].b;
    nr -= sums[i].count;
    consider(best, 0.5 * (values[i] + values[i + 1]), al, bl, nl, ar, br, nr,
             min_leaf, score_children);
  }
  return best;
}

/// The sort sweep for nodes with more than kMaxBuckets distinct values:
/// sorts the node's samples by value and scores every boundary between
/// distinct values. The sort's tie order decides the float sums, so the
/// sort and its comparator are part of the bit-identity contract.
template <typename ScoreFn>
Split sweep_sorted(std::span<Sample> samples, std::int32_t feature,
                   std::size_t min_leaf, const ScoreFn& score_children) {
  Split best;
  best.feature = feature;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& x, const Sample& y) { return x.value < y.value; });
  double ar = 0.0, br = 0.0;
  for (const Sample& s : samples) {
    ar += s.a;
    br += s.b;
  }
  double al = 0.0, bl = 0.0;
  std::size_t nl = 0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    al += samples[i].a;
    bl += samples[i].b;
    ar -= samples[i].a;
    br -= samples[i].b;
    ++nl;
    if (samples[i].value == samples[i + 1].value) continue;
    consider(best, 0.5 * (samples[i].value + samples[i + 1].value), al, bl,
             nl, ar, br, samples.size() - nl, min_leaf, score_children);
  }
  return best;
}

/// Scan of an unbinned feature over the node's samples (in node row order):
/// buckets up to kMaxBuckets distinct values by linear probe, summing each
/// bucket in row order, and falls back to the sort sweep beyond that.
template <typename ScoreFn>
Split scan_feature(std::span<Sample> samples, std::int32_t feature,
                   std::size_t min_leaf, const ScoreFn& score_children) {
  double values[kMaxBuckets];
  BinSum sums[kMaxBuckets];
  std::size_t buckets = 0;
  for (const Sample& s : samples) {
    std::size_t slot = buckets;
    for (std::size_t i = 0; i < buckets; ++i) {
      if (values[i] == s.value) {
        slot = i;
        break;
      }
    }
    if (slot == buckets) {
      if (buckets == kMaxBuckets) {
        return sweep_sorted(samples, feature, min_leaf, score_children);
      }
      values[buckets] = s.value;
      sums[buckets] = BinSum{};
      ++buckets;
    }
    sums[slot].a += s.a;
    sums[slot].b += s.b;
    sums[slot].count += 1;
  }

  std::size_t order[kMaxBuckets];
  std::iota(order, order + buckets, std::size_t{0});
  std::sort(order, order + buckets,
            [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });
  double sorted_values[kMaxBuckets];
  BinSum sorted_sums[kMaxBuckets];
  for (std::size_t i = 0; i < buckets; ++i) {
    sorted_values[i] = values[order[i]];
    sorted_sums[i] = sums[order[i]];
  }
  return sweep_buckets(sorted_values, sorted_sums, buckets, feature, min_leaf,
                       score_children);
}

/// One feature's column of the bin matrix, and how the scan treats it.
struct FeatureColumn {
  enum class Kind : std::uint8_t {
    kConstant,  // one distinct value: never splits, never scanned
    kBinned,    // at most kMaxBins values: histogram scan
    kUnbinned,  // more: scan_feature over gathered samples
  };
  Kind kind = Kind::kConstant;
  // kBinned only:
  std::vector<double> values;       // sorted distinct values, one per bin
  std::vector<std::uint8_t> bins;   // each row's bin
  std::vector<BinSum> hist;         // scratch: a node's sums per bin
};

/// One unit of a node's scan: `count` candidate positions, starting at
/// `first` in State::task_candidates. A binned task's candidates share one
/// pass over the node's rows; an unbinned task has one candidate.
struct ScanTask {
  std::size_t first = 0;
  std::size_t count = 0;
  bool binned = false;
};

}  // namespace

/// The bin matrix and every scratch buffer of one model fit.
struct TreeFitter::State {
  State(const Dataset& data, std::size_t lanes);

  const Dataset& data;
  std::size_t lanes;

  // The bin matrix, column by column, with each column's histogram.
  std::vector<FeatureColumn> features;

  // Scan scratch, sized here or on the first tree and reused.
  std::vector<std::size_t> indices;
  std::vector<Payload> payloads;  // per position in `indices`
  std::vector<std::size_t> feature_order;
  std::vector<Split> splits;  // per candidate position
  std::vector<ScanTask> tasks;
  std::vector<std::size_t> task_candidates;
  std::vector<std::vector<Sample>> lane_samples;  // sort sweeps, one per lane
};

TreeFitter::State::State(const Dataset& data, std::size_t lanes)
    : data(data), lanes(std::max<std::size_t>(lanes, 1)) {
  // Lanes beyond the pool's threads could never run at once.
  if (this->lanes > 1) {
    this->lanes = std::min(this->lanes,
                           engine::ThreadPool::shared().worker_count() + 1);
  }
  const std::size_t rows = data.size();
  const std::size_t width = data.feature_count();
  features.resize(width);
  // Distinct values per feature: a short linear probe settles the common
  // few-valued column, a sort settles the rest. `==` merges -0.0 and +0.0
  // into one bin, as the bucket probe does.
  constexpr std::size_t kProbeValues = 32;
  std::vector<double> distinct;
  for (std::size_t f = 0; f < width; ++f) {
    distinct.clear();
    bool many = false;
    for (std::size_t r = 0; r < rows; ++r) {
      const double v = data.row(r)[f];
      if (std::find(distinct.begin(), distinct.end(), v) != distinct.end()) {
        continue;
      }
      if (distinct.size() == kProbeValues) {
        many = true;
        break;
      }
      distinct.push_back(v);
    }
    if (many) {
      distinct.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) distinct[r] = data.row(r)[f];
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    FeatureColumn& column = features[f];
    if (distinct.size() < 2) continue;
    if (distinct.size() > kMaxBins) {
      column.kind = FeatureColumn::Kind::kUnbinned;
      continue;
    }
    column.kind = FeatureColumn::Kind::kBinned;
    column.values = distinct;
    column.bins.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto bin = std::lower_bound(distinct.begin(), distinct.end(),
                                        data.row(r)[f]) -
                       distinct.begin();
      column.bins[r] = static_cast<std::uint8_t>(bin);
    }
    column.hist.resize(distinct.size());
  }
  feature_order.resize(width);
  splits.resize(width);
  tasks.reserve(width);
  task_candidates.reserve(width);
  lane_samples.resize(this->lanes);
}

/// Shared recursive builder. `payload(i)` yields the (a, b) accumulands of
/// dataset row i; `leaf_value(a, b)` and `score_children` specialize the
/// objective.
template <typename PayloadFn, typename LeafFn, typename ScoreFn>
class TreeFitter::Builder {
 public:
  Builder(State& state, std::size_t max_depth, std::size_t min_leaf,
          double min_gain, std::size_t features_per_split, std::uint64_t seed,
          bool pure_is_leaf, PayloadFn payload, LeafFn leaf_value,
          ScoreFn score_children)
      : s_(state),
        max_depth_(max_depth),
        min_leaf_(min_leaf),
        min_gain_(min_gain),
        features_per_split_(features_per_split),
        rng_(seed),
        pure_is_leaf_(pure_is_leaf),
        payload_(payload),
        leaf_value_(leaf_value),
        score_children_(score_children) {}

  Tree build(std::span<const std::size_t> indices) {
    s_.indices.assign(indices.begin(), indices.end());
    s_.payloads.resize(indices.size());
    for (auto& samples : s_.lane_samples) {
      if (samples.size() < indices.size()) samples.resize(indices.size());
    }
    std::iota(s_.feature_order.begin(), s_.feature_order.end(), 0);
    Tree tree;
    grow(tree, 0, s_.indices.size(), 0);
    return tree;
  }

 private:
  std::int32_t grow(Tree& tree, std::size_t begin, std::size_t end,
                    std::size_t depth) {
    const auto node_id = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.emplace_back();

    // The payloads are pure, so each node computes them once for its scan.
    double total_a = 0.0, total_b = 0.0, total_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t row = s_.indices[i];
      const auto [a, b] = payload_(row);
      s_.payloads[i] = {a, b};
      total_a += a;
      total_b += b;
      total_w += s_.data.weight(row);
    }
    tree.nodes[static_cast<std::size_t>(node_id)].cover = total_w;
    tree.nodes[static_cast<std::size_t>(node_id)].value =
        leaf_value_(total_a, total_b);

    const std::size_t count = end - begin;
    if (depth >= max_depth_ || count < 2 * min_leaf_ || count < 2) {
      return node_id;
    }
    // Pure nodes (all weight in one accumuland) cannot improve: stop. This
    // also lets zero-gain splits proceed on *mixed* nodes, which is what
    // makes XOR-style interactions learnable (the gain appears one level
    // down).
    if (total_a == 0.0 || total_b == 0.0) {
      if (pure_is_leaf_) return node_id;
    }
    // Score of keeping everything in one child == the unsplit node's score.
    const double parent_score =
        score_children_(total_a, total_b, count, 0.0, 0.0, 0);

    // Choose candidate features (all, or a random subset for forests).
    std::size_t candidates = s_.feature_order.size();
    if (features_per_split_ != 0 && features_per_split_ < candidates) {
      for (std::size_t i = 0; i < features_per_split_; ++i) {
        const std::size_t j = i + rng_.bounded(candidates - i);
        std::swap(s_.feature_order[i], s_.feature_order[j]);
      }
      candidates = features_per_split_;
    }

    const Split best = find_split(begin, end, candidates);
    if (!best.found || best.score - parent_score < min_gain_) {
      return node_id;
    }

    const std::size_t feature = static_cast<std::size_t>(best.feature);
    const double threshold = best.threshold;
    const auto middle = std::stable_partition(
        s_.indices.begin() + static_cast<std::ptrdiff_t>(begin),
        s_.indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return s_.data.row(row)[feature] <= threshold; });
    const auto mid = static_cast<std::size_t>(middle - s_.indices.begin());
    if (mid == begin || mid == end) return node_id;  // degenerate numeric tie

    const std::int32_t left = grow(tree, begin, mid, depth + 1);
    const std::int32_t right = grow(tree, mid, end, depth + 1);
    TreeNode& node = tree.nodes[static_cast<std::size_t>(node_id)];
    node.feature = best.feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return node_id;
  }

  /// Best split over the first `candidates` entries of feature_order: one
  /// Split per candidate, computed in any order on any lane, then reduced
  /// in candidate order with the first-maximum rule.
  Split find_split(std::size_t begin, std::size_t end, std::size_t candidates) {
    // Features that may need the sort sweep (more than kMaxBuckets values)
    // go first and alone: they are the longest tasks, so a lane should
    // start them while the others work through the histogram groups.
    using Kind = FeatureColumn::Kind;
    s_.tasks.clear();
    s_.task_candidates.clear();
    for (std::size_t c = 0; c < candidates; ++c) {
      s_.splits[c] = Split{};
      const FeatureColumn& column = s_.features[s_.feature_order[c]];
      if (column.kind == Kind::kUnbinned || column.values.size() > kMaxBuckets) {
        s_.tasks.push_back({s_.task_candidates.size(), 1,
                            column.kind == Kind::kBinned});
        s_.task_candidates.push_back(c);
      }
    }
    for (std::size_t c = 0; c < candidates; ++c) {
      const FeatureColumn& column = s_.features[s_.feature_order[c]];
      if (column.kind != Kind::kBinned || column.values.size() > kMaxBuckets) {
        continue;
      }
      if (s_.tasks.empty() || !s_.tasks.back().binned ||
          s_.tasks.back().count == kGroup) {
        s_.tasks.push_back({s_.task_candidates.size(), 0, true});
      }
      s_.task_candidates.push_back(c);
      ++s_.tasks.back().count;
    }

    const std::size_t work = (end - begin) * s_.task_candidates.size();
    const std::size_t lanes =
        work < kParallelWork ? 1 : std::min(s_.lanes, s_.tasks.size());
    if (lanes <= 1) {
      for (const ScanTask& task : s_.tasks) scan(task, 0, begin, end);
    } else {
      // Each lane index runs once, so a lane's scratch is never shared;
      // the tasks are claimed dynamically.
      std::atomic<std::size_t> next{0};
      engine::ThreadPool::shared().parallel_for(
          lanes, lanes, [&](std::size_t lane) {
            for (std::size_t t = next++; t < s_.tasks.size(); t = next++) {
              scan(s_.tasks[t], lane, begin, end);
            }
          });
    }

    Split best;
    for (std::size_t c = 0; c < candidates; ++c) {
      const Split& split = s_.splits[c];
      if (split.found && (!best.found || split.score > best.score)) {
        best = split;
      }
    }
    return best;
  }

  void scan(const ScanTask& task, std::size_t lane, std::size_t begin,
            std::size_t end) {
    if (!task.binned) {
      const std::size_t c = s_.task_candidates[task.first];
      const auto feature = static_cast<std::int32_t>(s_.feature_order[c]);
      s_.splits[c] = scan_feature(gather(lane, feature, begin, end), feature,
                                  min_leaf_, score_children_);
      return;
    }
    // One pass over the node's rows accumulates every feature of the task,
    // each bin in node row order.
    const std::uint8_t* columns[kGroup];
    BinSum* hists[kGroup];
    for (std::size_t k = 0; k < task.count; ++k) {
      FeatureColumn& column =
          s_.features[s_.feature_order[s_.task_candidates[task.first + k]]];
      std::fill(column.hist.begin(), column.hist.end(), BinSum{});
      columns[k] = column.bins.data();
      hists[k] = column.hist.data();
    }
    switch (task.count) {
      case 1: accumulate<1>(columns, hists, begin, end); break;
      case 2: accumulate<2>(columns, hists, begin, end); break;
      case 3: accumulate<3>(columns, hists, begin, end); break;
      case 4: accumulate<4>(columns, hists, begin, end); break;
      case 5: accumulate<5>(columns, hists, begin, end); break;
      case 6: accumulate<6>(columns, hists, begin, end); break;
      case 7: accumulate<7>(columns, hists, begin, end); break;
      default: accumulate<kGroup>(columns, hists, begin, end); break;
    }
    for (std::size_t k = 0; k < task.count; ++k) {
      const std::size_t c = s_.task_candidates[task.first + k];
      const auto feature = static_cast<std::int32_t>(s_.feature_order[c]);
      s_.splits[c] = sweep_histogram(feature, hists[k], lane, begin, end);
    }
  }

  /// Adds each of the node's rows, in node row order, to its bin in each of
  /// the K histograms. K is a constant so the feature loop unrolls into K
  /// independent accumulation chains.
  template <std::size_t K>
  void accumulate(const std::uint8_t* const* columns, BinSum* const* hists,
                  std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t row = s_.indices[i];
      const Payload p = s_.payloads[i];
      for (std::size_t k = 0; k < K; ++k) {
        BinSum& bin = hists[k][columns[k][row]];
        bin.a += p.a;
        bin.b += p.b;
        ++bin.count;
      }
    }
  }

  /// The histogram's non-empty bins, ascending, are the node's buckets.
  Split sweep_histogram(std::int32_t feature, const BinSum* hist,
                        std::size_t lane, std::size_t begin, std::size_t end) {
    const auto& values = s_.features[static_cast<std::size_t>(feature)].values;
    double bucket_values[kMaxBuckets];
    BinSum sums[kMaxBuckets];
    std::size_t buckets = 0;
    for (std::size_t bin = 0; bin < values.size(); ++bin) {
      if (hist[bin].count == 0) continue;
      if (buckets == kMaxBuckets) {
        return sweep_sorted(gather(lane, feature, begin, end), feature,
                            min_leaf_, score_children_);
      }
      bucket_values[buckets] = values[bin];
      sums[buckets] = hist[bin];
      ++buckets;
    }
    return sweep_buckets(bucket_values, sums, buckets, feature, min_leaf_,
                         score_children_);
  }

  /// The node's samples of one feature, in node row order, in the lane's
  /// scratch.
  std::span<Sample> gather(std::size_t lane, std::int32_t feature,
                           std::size_t begin, std::size_t end) {
    Sample* samples = s_.lane_samples[lane].data();
    for (std::size_t i = begin; i < end; ++i) {
      samples[i - begin] = {
          s_.data.row(s_.indices[i])[static_cast<std::size_t>(feature)],
          s_.payloads[i].a, s_.payloads[i].b};
    }
    return {samples, end - begin};
  }

  State& s_;
  std::size_t max_depth_;
  std::size_t min_leaf_;
  double min_gain_;
  std::size_t features_per_split_;
  util::Xoshiro256 rng_;
  bool pure_is_leaf_;
  PayloadFn payload_;
  LeafFn leaf_value_;
  ScoreFn score_children_;
};

TreeFitter::TreeFitter(const Dataset& data, std::size_t lanes)
    : state_(std::make_unique<State>(data, lanes)) {}

TreeFitter::~TreeFitter() = default;

Tree TreeFitter::classification_tree(std::span<const std::size_t> indices,
                                     const TreeConfig& config) {
  const Dataset& data = state_->data;
  if (data.empty()) throw std::invalid_argument("fit tree: empty dataset");
  // Accumulands: a = weight of class 0, b = weight of class 1.
  const auto payload = [&](std::size_t row) {
    const double w = data.weight(row);
    return data.label(row) == 1 ? std::pair{0.0, w} : std::pair{w, 0.0};
  };
  const auto leaf_value = [](double w0, double w1) {
    const double total = w0 + w1;
    return total <= 0.0 ? 0.5 : w1 / total;
  };
  // Maximize sum of (w0^2 + w1^2)/w per child, which is equivalent to
  // minimizing weighted Gini impurity.
  const auto score = [](double al, double bl, std::size_t nl, double ar,
                        double br, std::size_t nr) {
    (void)nl;
    (void)nr;
    const double wl = al + bl;
    const double wr = ar + br;
    double s = 0.0;
    if (wl > 0.0) s += (al * al + bl * bl) / wl;
    if (wr > 0.0) s += (ar * ar + br * br) / wr;
    return s;
  };
  // Minimum gain 0 allows zero-gain splits on impure nodes, which XOR-style
  // interactions need: their gain only appears one level down.
  Builder builder(*state_, config.max_depth, config.min_samples_leaf,
                  /*min_gain=*/0.0, config.features_per_split, config.seed,
                  /*pure_is_leaf=*/true, payload, leaf_value, score);
  return builder.build(indices);
}

Tree TreeFitter::boost_tree(std::span<const double> gradients,
                            std::span<const double> hessians,
                            const BoostTreeConfig& config) {
  const Dataset& data = state_->data;
  if (data.empty()) throw std::invalid_argument("fit tree: empty dataset");
  if (gradients.size() != data.size() || hessians.size() != data.size()) {
    throw std::invalid_argument("fit tree: gradient size mismatch");
  }
  const double lambda = config.lambda;
  const auto payload = [&](std::size_t row) {
    return std::pair{gradients[row], hessians[row]};
  };
  const auto leaf_value = [lambda](double g, double h) {
    return -g / (h + lambda);
  };
  // XGBoost structure score: sum of G^2/(H + lambda) per child (the gain
  // comparison against the parent handles gamma via min_gain below).
  const auto score = [lambda](double gl, double hl, std::size_t nl, double gr,
                              double hr, std::size_t nr) {
    (void)nl;
    (void)nr;
    double s = 0.0;
    if (nl > 0 || gl != 0.0 || hl != 0.0) s += gl * gl / (hl + lambda);
    if (nr > 0 || gr != 0.0 || hr != 0.0) s += gr * gr / (hr + lambda);
    return s;
  };
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  Builder builder(*state_, config.max_depth, config.min_samples_leaf,
                  config.gamma, 0, /*seed=*/1, /*pure_is_leaf=*/false, payload,
                  leaf_value, score);
  return builder.build(indices);
}

}  // namespace polaris::ml
