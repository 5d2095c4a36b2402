// The POLARIS framework (paper Fig. 2): knowledge extraction + model
// training (stage i), SHAP interpretation and rule generation (stage ii),
// and model-guided masking (stage iii, Algorithm 2).
#pragma once

#include <future>
#include <optional>
#include <span>
#include <vector>

#include "circuits/suite.hpp"
#include "core/cognition.hpp"
#include "core/config.hpp"
#include "ml/model.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "xai/rules.hpp"

namespace polaris::core {

/// How Algorithm 2 scores gates: the trained model, the extracted rules
/// standalone, or the rule-augmented model (Sec. IV-B).
enum class InferenceMode { kModel, kRules, kModelPlusRules };

struct TrainingSummary {
  std::size_t samples = 0;
  std::size_t positives = 0;
  double dataset_seconds = 0.0;   // Algorithm 1 (incl. TVLA labelling)
  double training_seconds = 0.0;  // model fit
  double rules_seconds = 0.0;     // SHAP + rule mining
};

/// Cheap bundle metadata (the HEAD chunk) - what `polaris_cli inspect`
/// prints without deserializing the model itself.
struct BundleInfo {
  std::uint32_t format_version = 0;  // archive container version
  std::uint32_t bundle_version = 0;  // bundle layout version
  std::uint64_t config_fingerprint = 0;
  std::string model_name;
  std::size_t samples = 0;    // training samples the model was fitted on
  std::size_t positives = 0;  // of which labelled "good mask"
  std::size_t feature_dim = 0;
  std::size_t rule_count = 0;
  bool has_dataset = false;  // training data embedded?
};

struct MaskingOutcome {
  netlist::Netlist masked;
  std::vector<netlist::GateId> selected;  // gates replaced, ranked order
  /// Inference + sort + rewrite - the flow runtime Table II reports for
  /// POLARIS (no TVLA involved).
  double seconds = 0.0;
  /// Post-masking verification TVLA (Algorithm 2 line 10), if requested.
  std::optional<tvla::LeakageReport> verification;
};

class Polaris {
 public:
  /// Validates every knob up front (core::validate); throws
  /// std::invalid_argument with an actionable message on bad configs.
  explicit Polaris(PolarisConfig config = {});

  /// Serializes the trained state (config, model, rules, and - unless
  /// `include_training_data` is false - the labelled dataset) into a `.plb`
  /// bundle. Train once, serve many: a loaded bundle reproduces
  /// score_gates and mask_design selections bit-identically in any
  /// process on any host. Throws std::logic_error when untrained.
  void save_bundle(const std::string& path,
                   bool include_training_data = true) const;
  /// Reconstructs a trained Polaris from a bundle. Truncated, corrupt, or
  /// future-version files raise std::runtime_error. When `info` is given it
  /// receives the HEAD metadata, saving a second read of the file.
  [[nodiscard]] static Polaris load_bundle(const std::string& path,
                                           BundleInfo* info = nullptr);

  /// Stages i+ii: Algorithm 1 over every training design, imbalance
  /// handling (SMOTE / class weights), model fit, rule extraction.
  TrainingSummary train(std::span<const circuits::Design> training_designs,
                        const techlib::TechLibrary& lib);

  /// Algorithm 2: scores every maskable gate, masks the top `mask_size`.
  /// `verify` additionally runs the line-10 leakage estimate on the result.
  [[nodiscard]] MaskingOutcome mask_design(
      const circuits::Design& design, const techlib::TechLibrary& lib,
      std::size_t mask_size, InferenceMode mode = InferenceMode::kModel,
      bool verify = false) const;

  /// Gate scores (probability of "good mask") for a whole design, indexed
  /// by gate id (non-maskable gates score 0). Runs on config().threads
  /// lanes; the scores are bit-identical at every lane count (DESIGN.md
  /// "Inference, explanation and Verilog emission").
  [[nodiscard]] std::vector<double> score_gates(const circuits::Design& design,
                                                InferenceMode mode) const;

  [[nodiscard]] const ml::Model& model() const { return model_; }
  [[nodiscard]] const xai::RuleSet& rules() const { return rules_; }
  [[nodiscard]] const ml::Dataset& training_data() const { return data_; }
  [[nodiscard]] const PolarisConfig& config() const { return config_; }
  [[nodiscard]] bool trained() const { return trained_; }

 private:
  PolarisConfig config_;
  ml::Model model_;
  xai::RuleSet rules_;
  ml::Dataset data_;
  bool trained_ = false;
};

/// Reads only the HEAD metadata chunk of a bundle (still validates the
/// archive container: magic, version, CRC).
[[nodiscard]] BundleInfo read_bundle_info(const std::string& path);

/// TVLA-audits every design as one flow: all campaigns' shards drain
/// through a global engine::Scheduler as a single work queue, so designs
/// with unequal trace budgets or gate counts do not serialize behind each
/// other. Reports (design order) are bit-identical to calling
/// tvla::run_fixed_vs_random per design. Needs no trained model.
[[nodiscard]] std::vector<tvla::LeakageReport> audit_designs(
    std::span<const circuits::Design> designs, const techlib::TechLibrary& lib,
    const PolarisConfig& config);

/// The request->campaign seam that audit_designs, the serve daemon and
/// server::WorkerPool share: one design's fixed-vs-random campaign, input
/// classes from its roles, labelled with its name. `progress` (optional)
/// fires only when config.tvla.budget is enabled (streaming audits).
[[nodiscard]] tvla::CampaignSpec audit_spec(const circuits::Design& design,
                                            const techlib::TechLibrary& lib,
                                            const PolarisConfig& config,
                                            tvla::ProgressFn progress = {});

/// Queues every design's audit_spec on an EXISTING scheduler and returns
/// the results' futures (design order), for callers that wait on them
/// from other threads while they drain. Designs and lib must outlive the
/// campaigns.
[[nodiscard]] std::vector<std::future<tvla::LeakageReport>> submit_audits(
    engine::Scheduler& scheduler, std::span<const circuits::Design> designs,
    const techlib::TechLibrary& lib, const PolarisConfig& config,
    tvla::ProgressFn progress = {});

/// The `--verify` sign-off of a masked design: Algorithm 2's line-10
/// leakage estimate beside the original netlist's.
struct MaskVerification {
  tvla::LeakageReport before;  // the original netlist
  tvla::LeakageReport after;   // the masked netlist
};

/// Queues the before and after campaigns, both under
/// tvla_config_for(config, design) and labelled `<name>:before` and
/// `<name>:after`, on an EXISTING scheduler and drains only these two, so
/// they share the queue with whatever else the caller runs on it.
[[nodiscard]] MaskVerification verify_masking(
    engine::Scheduler& scheduler, const circuits::Design& design,
    const netlist::Netlist& masked, const techlib::TechLibrary& lib,
    const PolarisConfig& config);

}  // namespace polaris::core
