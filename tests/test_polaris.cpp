// End-to-end integration tests of the POLARIS pipeline (Algorithms 1 + 2).
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "graph/features.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// Small, fast config for tests (full-size parameters live in the benches).
core::PolarisConfig test_config() {
  core::PolarisConfig config;
  config.mask_size = 30;
  config.iterations = 6;
  config.locality = 5;
  config.tvla.traces = 2048;
  config.tvla.noise_std_fj = 1.0;
  config.model_rounds = 60;
  config.seed = 3;
  return config;
}

/// Two tiny training designs so the whole train() stays fast.
std::vector<circuits::Design> tiny_training_suite() {
  std::vector<circuits::Design> designs;
  {
    circuits::Design d{"sbox1", circuits::make_aes_sbox_layer(1), {}};
    d.roles.assign(d.netlist.primary_inputs().size(), circuits::InputRole::kData);
    for (std::size_t i = 8; i < 16; ++i) d.roles[i] = circuits::InputRole::kKey;
    designs.push_back(std::move(d));
  }
  {
    circuits::Design d{"mult6", circuits::make_multiplier(6), {}};
    d.roles.assign(d.netlist.primary_inputs().size(), circuits::InputRole::kData);
    designs.push_back(std::move(d));
  }
  return designs;
}

/// Algorithm 1 on one design: a CognitionPlan drained on its own scheduler.
core::CognitionStats run_cognition(const circuits::Design& design,
                                   const core::PolarisConfig& config,
                                   ml::Dataset& dataset) {
  engine::Scheduler scheduler(config.threads);
  core::CognitionPlan plan(design, lib(), config, scheduler);
  scheduler.drain();
  return plan.finalize(dataset);
}

TEST(Cognition, GeneratesLabelledSamples) {
  const auto designs = tiny_training_suite();
  ml::Dataset data;
  const auto stats = run_cognition(designs[0], test_config(), data);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_EQ(stats.samples, data.size());
  EXPECT_GT(data.size(), 50u);
  // Both labels must occur (otherwise theta_r or the leak floor is off).
  EXPECT_GT(data.positives(), 0u);
  EXPECT_GT(data.negatives(), 0u);
  // Feature width matches the locality-5 spec.
  EXPECT_EQ(data.feature_count(), graph::FeatureSpec{5}.dim());
}

TEST(Cognition, DeterministicForSeed) {
  const auto designs = tiny_training_suite();
  ml::Dataset a, b;
  (void)run_cognition(designs[1], test_config(), a);
  (void)run_cognition(designs[1], test_config(), b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.row(i)[0], b.row(i)[0]);
  }
}

TEST(Cognition, ThetaRControlsPositiveRate) {
  const auto designs = tiny_training_suite();
  auto strict = test_config();
  strict.theta_r = 0.95;
  auto lenient = test_config();
  lenient.theta_r = 0.20;
  ml::Dataset strict_data, lenient_data;
  (void)run_cognition(designs[0], strict, strict_data);
  (void)run_cognition(designs[0], lenient, lenient_data);
  // Looser threshold -> more "good masking" labels (paper Sec. V-A: high
  // theta_r causes data imbalance).
  EXPECT_GE(lenient_data.positives(), strict_data.positives());
}

class PolarisEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    polaris_ = new core::Polaris(test_config());
    const auto designs = tiny_training_suite();
    summary_ = polaris_->train(designs, lib());
  }
  static void TearDownTestSuite() {
    delete polaris_;
    polaris_ = nullptr;
  }

  static core::Polaris* polaris_;
  static core::TrainingSummary summary_;
};

core::Polaris* PolarisEndToEnd::polaris_ = nullptr;
core::TrainingSummary PolarisEndToEnd::summary_{};

TEST_F(PolarisEndToEnd, TrainingProducesModelAndRules) {
  EXPECT_TRUE(polaris_->trained());
  EXPECT_GT(summary_.samples, 100u);
  EXPECT_GT(summary_.dataset_seconds, 0.0);
  EXPECT_EQ(polaris_->model().name(), "AdaBoost");
  EXPECT_FALSE(polaris_->model().ensemble().trees.empty());
}

TEST_F(PolarisEndToEnd, ScoresAreProbabilitiesOnMaskableGates) {
  circuits::Design target{"sbox", circuits::make_aes_sbox_layer(1), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  const auto scores = polaris_->score_gates(target, core::InferenceMode::kModel);
  ASSERT_EQ(scores.size(), target.netlist.gate_count());
  for (netlist::GateId g = 0; g < scores.size(); ++g) {
    if (netlist::is_maskable(target.netlist.gate(g).type)) {
      EXPECT_GE(scores[g], 0.0);
      EXPECT_LE(scores[g], 1.0);
    } else {
      EXPECT_EQ(scores[g], 0.0);
    }
  }
}

TEST_F(PolarisEndToEnd, MaskDesignSelectsRequestedCount) {
  circuits::Design target{"sbox", circuits::make_aes_sbox_layer(1), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  const auto outcome = polaris_->mask_design(target, lib(), 40);
  EXPECT_EQ(outcome.selected.size(), 40u);
  EXPECT_GT(outcome.masked.gate_count(), target.netlist.gate_count());
  EXPECT_FALSE(outcome.verification.has_value());
  outcome.masked.validate();
}

TEST_F(PolarisEndToEnd, MaskingReducesLeakage) {
  circuits::Design target{"sbox", circuits::make_aes_sbox_layer(1), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  for (std::size_t i = 8; i < 16; ++i) {
    target.roles[i] = circuits::InputRole::kKey;
  }
  const auto tvla_config = core::tvla_config_for(polaris_->config(), target);
  const auto before = tvla::run_fixed_vs_random(target.netlist, lib(), tvla_config);
  ASSERT_GT(before.leaky_count(), 0u);

  const auto outcome = polaris_->mask_design(target, lib(),
                                             before.leaky_count(),
                                             core::InferenceMode::kModel,
                                             /*verify=*/true);
  ASSERT_TRUE(outcome.verification.has_value());
  EXPECT_LT(outcome.verification->total_abs_t(), before.total_abs_t());
}

TEST_F(PolarisEndToEnd, AllInferenceModesWork) {
  circuits::Design target{"mult", circuits::make_multiplier(6), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  for (const auto mode :
       {core::InferenceMode::kModel, core::InferenceMode::kRules,
        core::InferenceMode::kModelPlusRules}) {
    const auto outcome = polaris_->mask_design(target, lib(), 15, mode);
    EXPECT_LE(outcome.selected.size(), 15u);
    outcome.masked.validate();
  }
}

TEST_F(PolarisEndToEnd, SelectionIsRankedByScore) {
  circuits::Design target{"sbox", circuits::make_aes_sbox_layer(1), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  const auto scores = polaris_->score_gates(target, core::InferenceMode::kModel);
  const auto outcome = polaris_->mask_design(target, lib(), 25);
  for (std::size_t i = 1; i < outcome.selected.size(); ++i) {
    EXPECT_GE(scores[outcome.selected[i - 1]], scores[outcome.selected[i]]);
  }
}

TEST(Polaris, UntrainedMaskingThrows) {
  core::Polaris untrained(test_config());
  circuits::Design target{"mult", circuits::make_multiplier(4), {}};
  target.roles.assign(target.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  EXPECT_THROW((void)untrained.mask_design(target, lib(), 5), std::logic_error);
}

TEST(Polaris, ModelFactoryHonorsKind) {
  auto config = test_config();
  config.model = core::ModelKind::kRandomForest;
  EXPECT_EQ(core::make_model(config)->name(), "RandomForest");
  config.model = core::ModelKind::kXgboost;
  EXPECT_EQ(core::make_model(config)->name(), "XGBoost");
  config.model = core::ModelKind::kAdaBoost;
  EXPECT_EQ(core::make_model(config)->name(), "AdaBoost");
  EXPECT_EQ(ml::to_string(core::ModelKind::kXgboost), "XGBoost");
}

TEST(Polaris, RoleMappingMatchesProtocol) {
  circuits::Design d{"x", circuits::make_multiplier(4), {}};
  d.roles = {circuits::InputRole::kData, circuits::InputRole::kKey,
             circuits::InputRole::kControl};
  d.roles.resize(d.netlist.primary_inputs().size(), circuits::InputRole::kData);
  const auto classes = core::input_classes_for(d);
  EXPECT_EQ(classes[0], tvla::InputClass::kSensitive);
  EXPECT_EQ(classes[1], tvla::InputClass::kFixedCommon);
  EXPECT_EQ(classes[2], tvla::InputClass::kRandomCommon);
  const auto tvla_config = core::tvla_config_for(test_config(), d);
  EXPECT_EQ(tvla_config.input_class.size(), d.roles.size());
}

}  // namespace
