#include "core/polaris.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "engine/scheduler.hpp"
#include "engine/thread_pool.hpp"
#include "graph/features.hpp"
#include "masking/masking.hpp"
#include "ml/split_table.hpp"
#include "ml/smote.hpp"
#include "serialize/model_io.hpp"
#include "util/fileio.hpp"
#include "util/timer.hpp"

namespace polaris::core {

using netlist::GateId;

namespace {
// The .plb layout (see DESIGN.md "Bundle persistence"): HEAD, CONF, MODL,
// RULE, then DATA when the training data is embedded.
constexpr std::uint32_t kBundleVersion = 1;
constexpr std::string_view kProducer = "polaris-bundle";

/// The HEAD chunk, for both directions. The version gate runs before any
/// later field is read, so a future layout change cannot be misread - both
/// load_bundle and read_bundle_info read through read_head and therefore
/// accept exactly the same files.
template <class Io, class Info>
void head_fields(Io& io, Info& info) {
  io.chunk("HEAD", [&] {
    io.u32(info.bundle_version);
    if (info.bundle_version > kBundleVersion) {
      throw std::runtime_error(
          "polaris bundle: layout version " +
          std::to_string(info.bundle_version) +
          " is newer than this build supports (" +
          std::to_string(kBundleVersion) + "); upgrade polaris");
    }
    std::string producer(kProducer);
    io.str(producer);
    if (producer != kProducer) {
      throw std::runtime_error("polaris bundle: unexpected producer '" +
                               producer + "'");
    }
    io.u64(info.config_fingerprint);
    io.str(info.model_name);
    io.u64(info.samples);
    io.u64(info.positives);
    io.u64(info.feature_dim);
    io.u64(info.rule_count);
    io.boolean(info.has_dataset);
  });
}

/// The chunks after HEAD, for both directions.
template <class Io, class Config, class Model, class Rules, class Data>
void body_fields(Io& io, bool has_dataset, Config& config, Model& model,
                 Rules& rules, Data& data) {
  io.chunk("CONF", [&] { io.nested(config, write_config, read_config); });
  io.chunk("MODL", [&] {
    io.nested(
        model,
        [](serialize::Writer& out, const ml::Model& m) { m.save(out); },
        ml::Model::load);
  });
  io.chunk("RULE", [&] {
    io.nested(rules, serialize::write_ruleset, serialize::read_ruleset);
  });
  io.opt_chunk("DATA", has_dataset, [&] {
    io.nested(data, serialize::write_dataset, serialize::read_dataset);
  });
}

BundleInfo read_head(serialize::Reader& in) {
  BundleInfo info;
  info.format_version = in.version();
  head_fields(in, info);
  return info;
}

/// The "never UB" backstop for feature indices: CRC catches accidents, but
/// a deliberately crafted bundle re-seals its checksum, so every index a
/// prediction will later use to subscript a feature vector is range-checked
/// here, once, at load time.
void check_feature_indices(const Polaris& loaded, std::size_t dim) {
  for (const auto& wt : loaded.model().ensemble().trees) {
    for (const auto& node : wt.tree.nodes) {
      if (!node.is_leaf() && static_cast<std::size_t>(node.feature) >= dim) {
        throw std::runtime_error(
            "polaris bundle: tree feature index " +
            std::to_string(node.feature) + " out of range (dim " +
            std::to_string(dim) + ")");
      }
    }
  }
  for (const auto& rule : loaded.rules().rules()) {
    for (const auto& lit : rule.literals) {
      if (lit.feature >= dim) {
        throw std::runtime_error(
            "polaris bundle: rule feature index " +
            std::to_string(lit.feature) + " out of range (dim " +
            std::to_string(dim) + ")");
      }
    }
  }
  if (!loaded.training_data().empty() &&
      loaded.training_data().feature_count() != dim) {
    throw std::runtime_error(
        "polaris bundle: dataset width " +
        std::to_string(loaded.training_data().feature_count()) +
        " disagrees with the config's feature dim " + std::to_string(dim));
  }
}

}  // namespace

Polaris::Polaris(PolarisConfig config) : config_(std::move(config)) {
  validate(config_);
  model_ = std::move(*make_model(config_));
}

void Polaris::save_bundle(const std::string& path,
                          bool include_training_data) const {
  if (!trained_) {
    throw std::logic_error("Polaris::save_bundle: model not trained");
  }
  BundleInfo info;
  info.bundle_version = kBundleVersion;
  info.config_fingerprint = config_fingerprint(config_);
  info.model_name = model_.name();
  info.samples = data_.size();
  info.positives = data_.positives();
  info.feature_dim = data_.feature_count();
  info.rule_count = rules_.rules().size();
  info.has_dataset = include_training_data;
  serialize::Writer out;
  head_fields(out, info);
  body_fields(out, include_training_data, config_, model_, rules_, data_);
  // Temp file, fsync, rename: an interrupted save, or one that replaces a
  // bundle a serve is about to load, never leaves a truncated file.
  const auto bytes = out.finish();
  util::write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

Polaris Polaris::load_bundle(const std::string& path, BundleInfo* info) {
  serialize::Reader in(serialize::read_file(path));
  const BundleInfo head = read_head(in);
  if (info != nullptr) *info = head;
  PolarisConfig config;
  ml::Model model;
  xai::RuleSet rules;
  ml::Dataset data;
  body_fields(in, head.has_dataset, config, model, rules, data);

  Polaris loaded{std::move(config)};
  if (model.kind() != loaded.config_.model) {
    throw std::runtime_error(
        "polaris bundle: model chunk holds a " + model.name() +
        " but the config says " + ml::to_string(loaded.config_.model));
  }
  loaded.model_ = std::move(model);
  loaded.rules_ = std::move(rules);
  loaded.data_ = std::move(data);
  check_feature_indices(loaded,
                        graph::FeatureSpec{loaded.config_.locality}.dim());
  loaded.trained_ = true;
  return loaded;
}

BundleInfo read_bundle_info(const std::string& path) {
  serialize::Reader in(serialize::read_file(path));
  return read_head(in);
}

TrainingSummary Polaris::train(
    std::span<const circuits::Design> training_designs,
    const techlib::TechLibrary& lib) {
  TrainingSummary summary;
  data_ = ml::Dataset{};

  util::Timer timer;
  // Algorithm 1 across training designs: every design's labelling
  // campaigns (original + one per iteration) enter ONE global shard queue,
  // so the pool never idles on a design that finished early - the tail of
  // the largest design is filled by the others' shards. Labels are applied
  // in design order afterwards for a deterministic sample layout.
  engine::Scheduler scheduler(config_.threads);
  // Plan construction (selection draws + apply_masking per iteration) runs
  // design-parallel on the pool; submission into the scheduler is
  // mutex-guarded, and the resulting queue order only affects placement,
  // never results (test_scheduler shuffles submission orders).
  std::vector<std::unique_ptr<CognitionPlan>> plans(training_designs.size());
  engine::ThreadPool::shared().parallel_for(
      training_designs.size(),
      engine::ThreadPool::resolve_threads(config_.threads),
      [&](std::size_t i) {
        plans[i] = std::make_unique<CognitionPlan>(training_designs[i], lib,
                                                   config_, scheduler);
      });
  scheduler.drain();
  // Labelling (graph feature extraction per sample) is the non-TVLA cost;
  // finalize each design into its own dataset in parallel, then append in
  // design order for the deterministic sample layout.
  std::vector<ml::Dataset> per_design(plans.size());
  engine::ThreadPool::shared().parallel_for(
      plans.size(), engine::ThreadPool::resolve_threads(config_.threads),
      [&](std::size_t i) { (void)plans[i]->finalize(per_design[i]); });
  for (const auto& partial : per_design) data_.append(partial);
  summary.dataset_seconds = timer.seconds();
  summary.samples = data_.size();
  summary.positives = data_.positives();
  if (data_.empty()) {
    throw std::runtime_error("Polaris::train: Algorithm 1 produced no samples");
  }

  // Imbalance handling (Sec. V-B): SMOTE for the forest, class-balance
  // weights for the boosted models.
  timer.reset();
  if (config_.handle_imbalance) {
    if (config_.model == ModelKind::kRandomForest) {
      data_ = ml::smote_oversample(data_, config_.seed);
    } else {
      data_.apply_class_balance_weights();
    }
  }
  model_.fit(data_);
  summary.training_seconds = timer.seconds();

  timer.reset();
  // Rule literals use only the binary structural features (type one-hots
  // and sub-graph adjacency), matching the paper's Table V vocabulary; the
  // three normalized scalars are excluded.
  xai::RuleExtractionConfig rule_config;
  const graph::FeatureSpec spec{config_.locality};
  rule_config.allowed_features.assign(spec.dim(), true);
  for (std::size_t f = spec.dim() - spec.scalar_dims(); f < spec.dim(); ++f) {
    rule_config.allowed_features[f] = false;
  }
  rules_ = xai::extract_rules(model_, data_, rule_config);
  summary.rules_seconds = timer.seconds();

  trained_ = true;
  return summary;
}

std::vector<double> Polaris::score_gates(const circuits::Design& design,
                                         InferenceMode mode) const {
  if (!trained_) throw std::logic_error("Polaris: model not trained");
  const auto& nl = design.netlist;
  const graph::FeatureExtractor extractor(nl,
                                          graph::FeatureSpec{config_.locality});
  // Equal outcome keys give equal model scores bit for bit, so the model
  // walks once per distinct key when keying a row is the cheaper of the
  // two (ml/split_table.hpp). Rules read x[f] >= 0.5 literals, not keys,
  // and stay per row.
  const ml::SplitTable splits(model_.ensemble());
  const bool memoize =
      mode != InferenceMode::kRules && splits.cheaper_than_walk();
  std::vector<double> scores(nl.gate_count(), 0.0);

  // Lanes claim fixed blocks of gate ids; each keeps its own scratch, row
  // and memo. A gate's score depends only on its row, so which lane scored
  // it does not matter.
  constexpr std::size_t kBlock = 256;
  const std::size_t blocks = (nl.gate_count() + kBlock - 1) / kBlock;
  std::atomic<std::size_t> next{0};
  const auto lane = [&](std::size_t) {
    graph::FeatureExtractor::Scratch scratch;
    std::vector<double> row(extractor.spec().dim());
    std::vector<std::uint64_t> key(splits.key_words());
    ml::KeyMemo<double> memo;
    const auto model_score = [&] {
      if (!memoize) return model_.predict_proba(row);
      splits.key(row, key);
      return memo.get(key, [&] { return model_.predict_proba(row); });
    };
    for (std::size_t b = next++; b < blocks; b = next++) {
      const GateId end = static_cast<GateId>(
          std::min(nl.gate_count(), (b + 1) * kBlock));
      for (auto g = static_cast<GateId>(b * kBlock); g < end; ++g) {
        if (!netlist::is_maskable(nl.gate(g).type)) continue;
        extractor.extract(g, row, scratch);
        switch (mode) {
          case InferenceMode::kModel:
            scores[g] = model_score();
            break;
          case InferenceMode::kRules:
            scores[g] = rules_.score(row);
            break;
          case InferenceMode::kModelPlusRules:
            scores[g] = rules_.combined_score(model_score(), row);
            break;
        }
      }
    }
  };
  const std::size_t lanes = std::min(
      engine::ThreadPool::resolve_threads(config_.threads), blocks);
  engine::ThreadPool::shared().parallel_for(lanes, lanes, lane);

  // Coherence smoothing (see PolarisConfig): pull each maskable gate's
  // score toward its maskable neighbors' mean so contiguous regions rise
  // through the ranking together.
  const double alpha = config_.coherence_smoothing;
  if (alpha > 0.0) {
    const auto& graph = extractor.graph();
    std::vector<double> smoothed = scores;
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      if (!netlist::is_maskable(nl.gate(g).type)) continue;
      double sum = 0.0;
      std::size_t count = 0;
      for (const GateId nb : graph.neighbors(g)) {
        if (netlist::is_maskable(nl.gate(nb).type)) {
          sum += scores[nb];
          ++count;
        }
      }
      if (count != 0) {
        smoothed[g] = (1.0 - alpha) * scores[g] + alpha * sum /
                                                      static_cast<double>(count);
      }
    }
    scores.swap(smoothed);
  }
  return scores;
}

tvla::CampaignSpec audit_spec(const circuits::Design& design,
                              const techlib::TechLibrary& lib,
                              const PolarisConfig& config,
                              tvla::ProgressFn progress) {
  return {.design = &design.netlist,
          .lib = &lib,
          .config = tvla_config_for(config, design),
          .progress = std::move(progress),
          .label = design.name};
}

std::vector<std::future<tvla::LeakageReport>> submit_audits(
    engine::Scheduler& scheduler, std::span<const circuits::Design> designs,
    const techlib::TechLibrary& lib, const PolarisConfig& config,
    tvla::ProgressFn progress) {
  std::vector<std::future<tvla::LeakageReport>> pending;
  pending.reserve(designs.size());
  for (const auto& design : designs) {
    pending.push_back(
        tvla::submit(scheduler, audit_spec(design, lib, config, progress))
            .future());
  }
  return pending;
}

MaskVerification verify_masking(engine::Scheduler& scheduler,
                                const circuits::Design& design,
                                const netlist::Netlist& masked,
                                const techlib::TechLibrary& lib,
                                const PolarisConfig& config) {
  tvla::CampaignSpec spec{.design = &design.netlist,
                          .lib = &lib,
                          .config = tvla_config_for(config, design),
                          .label = design.name + ":before"};
  auto before = tvla::submit(scheduler, spec);
  spec.design = &masked;
  spec.label = design.name + ":after";
  auto after = tvla::submit(scheduler, std::move(spec));
  scheduler.drain({before.id(), after.id()});
  return {before.get(), after.get()};
}

std::vector<tvla::LeakageReport> audit_designs(
    std::span<const circuits::Design> designs, const techlib::TechLibrary& lib,
    const PolarisConfig& config) {
  engine::Scheduler scheduler(config.threads);
  auto pending = submit_audits(scheduler, designs, lib, config);
  scheduler.drain();
  std::vector<tvla::LeakageReport> reports;
  reports.reserve(designs.size());
  for (auto& future : pending) reports.push_back(future.get());
  return reports;
}

MaskingOutcome Polaris::mask_design(const circuits::Design& design,
                                    const techlib::TechLibrary& lib,
                                    std::size_t mask_size, InferenceMode mode,
                                    bool verify) const {
  util::Timer timer;

  // Algorithm 2 lines 4-8: score every gate, sort descending; Ctop is the
  // top Msize of the ranking (scores are model probabilities, so per-design
  // calibration shifts do not matter - only the order does).
  const auto scores = score_gates(design, mode);
  std::vector<GateId> ranked;
  ranked.reserve(scores.size());
  for (GateId g = 0; g < scores.size(); ++g) {
    if (scores[g] > 0.0) ranked.push_back(g);
  }
  std::sort(ranked.begin(), ranked.end(), [&](GateId a, GateId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;  // deterministic tie-break
  });
  if (ranked.size() > mask_size) ranked.resize(mask_size);

  // Line 9: modify(D, Ctop, Msize).
  auto rewritten =
      masking::apply_masking(design.netlist, ranked, config_.scheme);

  MaskingOutcome outcome{std::move(rewritten.design), std::move(ranked),
                         timer.seconds(), std::nullopt};

  if (verify) {  // line 10: leakage estimate of the masked design
    outcome.verification = tvla::run_fixed_vs_random(
        outcome.masked, lib, tvla_config_for(config_, design));
  }
  return outcome;
}

}  // namespace polaris::core
