// Bit oracles for inference, explanation and Verilog emission.
//
// * score_gates must equal a per-gate loop over the public calls
//   (FeatureExtractor::extract, then Model::predict_proba,
//   RuleSet::score or RuleSet::combined_score, then the coherence
//   smoothing step), bit for bit, for every evaluation design at scale 1.0
//   and every InferenceMode, at 1, 2, 3 and 8 lanes and from inside a pool
//   job. The oracle runs on the same libm as the code it checks, so the
//   comparison is exact on any host.
// * tests/golden/emit_bits.csv pins to_verilog's output (length and
//   FNV-1a) for every evaluation design, plain and with every 7th maskable
//   gate masked. The to_verilog path has no floating point, so these
//   bytes are the same on every host. The CSV's `ruleset/` row (the
//   write_ruleset bytes of test_golden's model) comes out of a full
//   training run, whose exp/log path varies by libm; test_golden checks it
//   under the slow label. Here, training at 1, 2, 3 and 8 threads must
//   give the same RuleSet bytes, which holds on any host.
//
// Regenerate this file's rows of the CSV (only when an output changes on
// purpose) with
//
//   POLARIS_UPDATE_GOLDEN=1 ./test_inference
//
// A property test checks the outcome-key argument behind the memoized
// walks and TreeSHAP runs (ml/split_table.hpp) on random ensembles with
// repeated conditions and NaN features: rows with equal keys get bit-equal
// margins and bit-equal TreeSHAP values.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "engine/thread_pool.hpp"
#include "graph/features.hpp"
#include "masking/masking.hpp"
#include "ml/split_table.hpp"
#include "netlist/verilog.hpp"
#include "serialize/archive.hpp"
#include "serialize/model_io.hpp"
#include "techlib/techlib.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "xai/treeshap.hpp"

namespace {

using namespace polaris;
using core::InferenceMode;
using netlist::GateId;

constexpr InferenceMode kModes[] = {InferenceMode::kModel,
                                    InferenceMode::kRules,
                                    InferenceMode::kModelPlusRules};
constexpr std::size_t kLaneCounts[] = {1, 2, 3, 8};

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

const std::vector<circuits::Design>& suite() {
  static const auto instance = circuits::evaluation_suite(1.0);
  return instance;
}

/// test_golden's model (Algorithm 1 on two training designs, 25 AdaBoost
/// rounds, rule extraction), trained at `threads`, and once as a single
/// decision tree.
core::PolarisConfig golden_config(std::size_t threads,
                                  core::ModelKind model =
                                      core::ModelKind::kAdaBoost) {
  core::PolarisConfig config;
  config.mask_size = 30;
  config.locality = 3;
  config.iterations = 3;
  config.model = model;
  config.model_rounds = 25;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 9;
  config.tvla.seed = 9;
  config.threads = threads;
  return config;
}

const core::Polaris& trained(
    std::size_t threads, core::ModelKind model = core::ModelKind::kAdaBoost) {
  static std::map<std::pair<std::size_t, core::ModelKind>,
                  std::unique_ptr<core::Polaris>>
      cache;
  auto& slot = cache[{threads, model}];
  if (!slot) {
    slot = std::make_unique<core::Polaris>(golden_config(threads, model));
    const auto training = circuits::training_suite();
    (void)slot->train(std::span(training.data(), 2), lib());
  }
  return *slot;
}

/// The per-gate loop score_gates must reproduce.
std::vector<double> oracle_scores(const core::Polaris& polaris,
                                  const circuits::Design& design,
                                  InferenceMode mode) {
  const auto& nl = design.netlist;
  graph::FeatureExtractor extractor(
      nl, graph::FeatureSpec{polaris.config().locality});
  std::vector<double> scores(nl.gate_count(), 0.0);
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (!netlist::is_maskable(nl.gate(g).type)) continue;
    const auto x = extractor.extract(g);
    switch (mode) {
      case InferenceMode::kModel:
        scores[g] = polaris.model().predict_proba(x);
        break;
      case InferenceMode::kRules:
        scores[g] = polaris.rules().score(x);
        break;
      case InferenceMode::kModelPlusRules:
        scores[g] = polaris.rules().combined_score(
            polaris.model().predict_proba(x), x);
        break;
    }
  }
  const double alpha = polaris.config().coherence_smoothing;
  if (alpha <= 0.0) return scores;
  std::vector<double> smoothed = scores;
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    if (!netlist::is_maskable(nl.gate(g).type)) continue;
    double sum = 0.0;
    std::size_t count = 0;
    for (const GateId nb : extractor.graph().neighbors(g)) {
      if (netlist::is_maskable(nl.gate(nb).type)) {
        sum += scores[nb];
        ++count;
      }
    }
    if (count != 0) {
      smoothed[g] = (1.0 - alpha) * scores[g] +
                    alpha * sum / static_cast<double>(count);
    }
  }
  return smoothed;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

const char* mode_name(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kModel: return "model";
    case InferenceMode::kRules: return "rules";
    case InferenceMode::kModelPlusRules: return "model+rules";
  }
  return "?";
}

/// oracle_scores, computed once per (model, design, mode).
const std::vector<double>& cached_oracle(const core::Polaris& polaris,
                                         std::size_t design,
                                         InferenceMode mode) {
  static std::map<std::tuple<const core::Polaris*, std::size_t, InferenceMode>,
                  std::vector<double>>
      cache;
  auto& slot = cache[{&polaris, design, mode}];
  if (slot.empty()) slot = oracle_scores(polaris, suite()[design], mode);
  return slot;
}

/// Every (design, mode) oracle of `reference` against `score`, which scores
/// one design the way the caller wants checked.
template <class Score>
void expect_oracle(const core::Polaris& reference, const std::string& what,
                   Score&& score) {
  for (std::size_t d = 0; d < suite().size(); ++d) {
    for (const InferenceMode mode : kModes) {
      EXPECT_TRUE(same_bits(score(suite()[d], mode),
                            cached_oracle(reference, d, mode)))
          << what << ": " << suite()[d].name << " " << mode_name(mode)
          << " differs from the per-gate loop";
    }
  }
}

TEST(InferenceOracle, ScoreGatesMatchesPerGateLoopAtEveryLaneCount) {
  // Every lane count trains its own model, and must reproduce the 1-lane
  // model's per-gate loop.
  for (const std::size_t lanes : kLaneCounts) {
    const auto& polaris = trained(lanes);
    expect_oracle(trained(1), std::to_string(lanes) + " lanes",
                  [&](const circuits::Design& design, InferenceMode mode) {
                    return polaris.score_gates(design, mode);
                  });
  }
}

TEST(InferenceOracle, ScoreGatesInsidePoolJobRunsInline) {
  // Two jobs score at once on pool threads (the CMake test environment
  // forces real workers); each call's own lane fan-out then runs inline.
  const auto& polaris = trained(3);
  expect_oracle(trained(1), "inside a pool job",
                [&](const circuits::Design& design, InferenceMode mode) {
                  std::vector<std::vector<double>> scores(2);
                  engine::ThreadPool::shared().parallel_for(
                      2, 2, [&](std::size_t i) {
                        scores[i] = polaris.score_gates(design, mode);
                      });
                  EXPECT_TRUE(same_bits(scores[0], scores[1]));
                  return scores[1];
                });
}

TEST(InferenceOracle, MemoRuleFollowsTheModel) {
  // The boosted model has fewer distinct conditions than its trees' depths
  // sum to, so score_gates keys its rows; a single tree never does.
  const ml::SplitTable boosted(trained(1).model().ensemble());
  EXPECT_TRUE(boosted.cheaper_than_walk()) << boosted.size() << " conditions";
  const ml::SplitTable single(
      trained(3, core::ModelKind::kDecisionTree).model().ensemble());
  EXPECT_FALSE(single.cheaper_than_walk()) << single.size() << " conditions";
}

TEST(InferenceOracle, SingleTreeModelMatchesPerGateLoop) {
  const auto& polaris = trained(3, core::ModelKind::kDecisionTree);
  expect_oracle(polaris, "decision tree",
                [&](const circuits::Design& design, InferenceMode mode) {
                  return polaris.score_gates(design, mode);
                });
}

// --- outcome keys ------------------------------------------------------------

/// Thresholds and feature values from small sets, so conditions repeat
/// across trees and many rows with different values share a key.
constexpr double kThresholds[] = {0.25, 0.5, 0.75, -0.0, 0.0};

ml::Tree random_tree(std::size_t features, std::size_t depth,
                     util::Xoshiro256& rng) {
  ml::Tree tree;
  const std::function<std::int32_t(std::size_t, double)> grow =
      [&](std::size_t d, double cover) -> std::int32_t {
    const auto id = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes.back().cover = cover;
    if (d == 0 || rng.chance(0.2)) {
      tree.nodes.back().value = rng.uniform(-1.0, 1.0);
      return id;
    }
    const double share = rng.uniform(0.1, 0.9);
    const auto feature = static_cast<std::int32_t>(rng.bounded(features));
    const double threshold = kThresholds[rng.bounded(std::size(kThresholds))];
    const auto left = grow(d - 1, cover * share);
    const auto right = grow(d - 1, cover * (1.0 - share));
    auto& node = tree.nodes[static_cast<std::size_t>(id)];
    node.feature = feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return id;
  };
  (void)grow(depth, rng.uniform(1.0, 100.0));
  return tree;
}

TEST(OutcomeKeys, EqualKeysGiveEqualMarginsAndTreeShap) {
  constexpr double kValues[] = {-1.0, 0.0, -0.0, 0.1, 0.25, 0.3, 0.5,
                                0.6,  0.75, 0.9, 1.0, std::nan("")};
  util::Xoshiro256 rng(2026);
  std::size_t shared_keys = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t features = 2 + rng.bounded(5);
    ml::TreeEnsemble ensemble;
    ensemble.base = rng.uniform(-1.0, 1.0);
    ensemble.link = rng.chance(0.5) ? ml::TreeEnsemble::Link::kLogistic
                                    : ml::TreeEnsemble::Link::kIdentity;
    const std::size_t trees = 1 + rng.bounded(12);
    for (std::size_t t = 0; t < trees; ++t) {
      ensemble.trees.push_back(
          {random_tree(features, 1 + rng.bounded(5), rng),
           rng.uniform(0.1, 2.0)});
    }
    const ml::SplitTable splits(ensemble);

    // The first row seen under each key, and its results.
    struct First {
      std::vector<double> x;
      double margin;
      std::vector<double> phi;
    };
    ml::KeyMemo<First> seen;
    std::vector<std::uint64_t> key(splits.key_words());
    for (int row = 0; row < 300; ++row) {
      std::vector<double> x(features);
      for (auto& v : x) v = kValues[rng.bounded(std::size(kValues))];
      splits.key(x, key);
      const double margin = ensemble.margin(x);
      const auto phi = xai::tree_shap(ensemble, x);
      const First& first =
          seen.get(key, [&] { return First{x, margin, phi}; });
      if (std::memcmp(first.x.data(), x.data(), x.size() * sizeof(double))) {
        ++shared_keys;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(first.margin),
                std::bit_cast<std::uint64_t>(margin))
          << "trial " << trial << " row " << row;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ensemble.probability(first.x)),
                std::bit_cast<std::uint64_t>(ensemble.probability(x)))
          << "trial " << trial << " row " << row;
      EXPECT_TRUE(std::memcmp(first.phi.data(), phi.data(),
                              phi.size() * sizeof(double)) == 0)
          << "trial " << trial << " row " << row;
    }
  }
  // Not vacuous: many rows with different values met an earlier key.
  EXPECT_GT(shared_keys, 1000u);
}

ml::Tree stump(std::int32_t feature, double threshold) {
  ml::Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {feature, threshold, 1, 2, 0.0, 2.0};
  tree.nodes[1].value = -1.0;
  tree.nodes[2].value = 1.0;
  return tree;
}

TEST(OutcomeKeys, TableDedupsConditionsAndWeighsThemAgainstTheWalk) {
  // Two stumps on one condition and one on another: two conditions
  // against a walk of three nodes.
  ml::TreeEnsemble stumps;
  stumps.trees = {{stump(1, 0.5), 1.0}, {stump(1, 0.5), 0.5},
                  {stump(0, 0.5), 0.25}};
  const ml::SplitTable shared(stumps);
  EXPECT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared.key_words(), 1u);
  EXPECT_TRUE(shared.cheaper_than_walk());

  // One depth-2 tree with three distinct conditions: a walk of two nodes.
  ml::TreeEnsemble deep;
  ml::Tree tree = stump(0, 0.5);
  tree.nodes[1] = {1, 0.5, 3, 4, 0.0, 1.0};
  tree.nodes[2] = {2, 0.5, 5, 6, 0.0, 1.0};
  tree.nodes.resize(7);
  deep.trees = {{tree, 1.0}};
  EXPECT_EQ(ml::SplitTable(deep).size(), 3u);
  EXPECT_FALSE(ml::SplitTable(deep).cheaper_than_walk());

  // Bit c is !(x[f_c] <= t_c), conditions in feature order; a NaN fails
  // every <=, so it sets its bits, as it sends the walk right.
  ml::TreeEnsemble two;
  two.trees = {{stump(1, 0.5), 1.0}, {stump(0, 0.5), 1.0}};
  const ml::SplitTable splits(two);
  std::uint64_t key = ~0ULL;
  splits.key(std::vector<double>{0.5, 0.75}, {&key, 1});
  EXPECT_EQ(key, 0b10u);
  splits.key(std::vector<double>{std::nan(""), 0.0}, {&key, 1});
  EXPECT_EQ(key, 0b01u);
}

TEST(OutcomeKeys, MemoComputesOncePerDistinctKey) {
  for (const std::size_t words : {std::size_t{1}, std::size_t{3}}) {
    ml::KeyMemo<std::size_t> memo;
    std::size_t computed = 0;
    std::vector<std::uint64_t> key(words);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::uint64_t k = 0; k < 1000; ++k) {
        std::fill(key.begin(), key.end(), 0);
        key.back() = k * 0x9e3779b97f4a7c15ULL;
        const std::size_t value = memo.get(key, [&] {
          ++computed;
          return static_cast<std::size_t>(k);
        });
        ASSERT_EQ(value, k);
      }
    }
    EXPECT_EQ(computed, 1000u);
    EXPECT_EQ(memo.size(), 1000u);
  }
}

// --- emit_bits.csv -----------------------------------------------------------

const std::string kEmitCsv = std::string(POLARIS_GOLDEN_DIR) + "/emit_bits.csv";

bool update_mode() {
  const char* env = std::getenv("POLARIS_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string fnv1a_hex(std::string_view bytes) {
  const std::uint64_t hash = util::fnv1a(bytes);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

struct Row {
  std::size_t length = 0;
  std::string value;
  bool operator==(const Row&) const = default;
};
using Rows = std::map<std::string, Row>;

/// Every row of the CSV, sorted by name (test_golden owns the `ruleset/`
/// row).
Rows read_rows() {
  std::ifstream in(kEmitCsv);
  EXPECT_TRUE(in) << "missing golden file " << kEmitCsv
                  << " (regenerate with POLARIS_UPDATE_GOLDEN=1)";
  Rows rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto first = line.find(',');
    const auto second = line.find(',', first + 1);
    if (second == std::string::npos) continue;
    rows[line.substr(0, first)] = {
        std::strtoull(line.c_str() + first + 1, nullptr, 10),
        line.substr(second + 1)};
  }
  return rows;
}

bool is_verilog_row(const std::string& name) {
  return name.starts_with("plain/") || name.starts_with("masked/");
}

/// Every row to_verilog owns in the CSV.
Rows verilog_rows() {
  Rows rows;
  for (const auto& design : suite()) {
    const std::string plain = netlist::to_verilog(design.netlist);
    rows["plain/" + design.name] = {plain.size(), fnv1a_hex(plain)};
    std::vector<GateId> every_7th;
    std::size_t maskable = 0;
    for (GateId g = 0; g < design.netlist.gate_count(); ++g) {
      if (!netlist::is_maskable(design.netlist.gate(g).type)) continue;
      if (maskable++ % 7 == 0) every_7th.push_back(g);
    }
    const std::string masked = netlist::to_verilog(
        masking::apply_masking(design.netlist, every_7th).design);
    rows["masked/" + design.name] = {masked.size(), fnv1a_hex(masked)};
  }
  return rows;
}

Row ruleset_row(const core::Polaris& polaris) {
  serialize::Writer out;
  serialize::write_ruleset(out, polaris.rules());
  const auto bytes = out.finish();
  return {bytes.size(), to_hex(bytes)};
}

TEST(EmitBits, VerilogMatchesGolden) {
  const Rows actual = verilog_rows();
  Rows golden = read_rows();
  if (update_mode()) {
    std::erase_if(golden, [](const auto& row) { return is_verilog_row(row.first); });
    golden.insert(actual.begin(), actual.end());
    std::ofstream out(kEmitCsv);
    ASSERT_TRUE(out) << "cannot write " << kEmitCsv;
    out << "name,length,value\n";
    for (const auto& [name, row] : golden) {
      out << name << "," << row.length << "," << row.value << "\n";
    }
    return;
  }
  std::erase_if(golden, [](const auto& row) { return !is_verilog_row(row.first); });
  ASSERT_EQ(golden.size(), actual.size()) << "emit_bits.csv rows drifted";
  for (const auto& [name, row] : actual) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " missing from emit_bits.csv";
    EXPECT_EQ(it->second.length, row.length) << name << ": length drifted";
    EXPECT_EQ(it->second.value, row.value) << name << ": bytes drifted";
  }
}

TEST(EmitBits, RuleSetIdenticalAtEveryThreadCount) {
  const Row reference = ruleset_row(trained(1));
  for (const std::size_t threads : kLaneCounts) {
    EXPECT_EQ(ruleset_row(trained(threads)), reference)
        << "the RuleSet trained at " << threads << " threads differs";
  }
}

}  // namespace
