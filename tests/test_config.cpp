// PolarisConfig validation (one actionable error per bad knob, enforced at
// Polaris construction and by the CLI), name parsing, serialization, and
// the host-independent config fingerprint.
#include <gtest/gtest.h>

#include <limits>

#include "core/config.hpp"
#include "core/polaris.hpp"
#include "serialize/archive.hpp"

namespace {

using namespace polaris;

TEST(ConfigValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(core::validate(core::PolarisConfig{}));
}

TEST(ConfigValidate, EachBadKnobNamesItself) {
  const struct {
    const char* knob;
    void (*corrupt)(core::PolarisConfig&);
  } cases[] = {
      {"theta_r", [](core::PolarisConfig& c) { c.theta_r = 1.5; }},
      {"theta_r", [](core::PolarisConfig& c) { c.theta_r = -0.1; }},
      {"iterations", [](core::PolarisConfig& c) { c.iterations = 0; }},
      {"mask_size", [](core::PolarisConfig& c) { c.mask_size = 0; }},
      {"locality", [](core::PolarisConfig& c) { c.locality = 0; }},
      {"model_rounds", [](core::PolarisConfig& c) { c.model_rounds = 0; }},
      {"learning_rate", [](core::PolarisConfig& c) { c.learning_rate = 0.0; }},
      {"tvla.traces", [](core::PolarisConfig& c) { c.tvla.traces = 0; }},
      {"tvla.traces", [](core::PolarisConfig& c) { c.tvla.traces = 100; }},
      {"tvla.threshold", [](core::PolarisConfig& c) { c.tvla.threshold = 0.0; }},
      {"tvla.noise_std_fj",
       [](core::PolarisConfig& c) { c.tvla.noise_std_fj = -1.0; }},
      {"coherence_smoothing",
       [](core::PolarisConfig& c) { c.coherence_smoothing = 1.5; }},
      {"min_leak_for_label",
       [](core::PolarisConfig& c) { c.min_leak_for_label = -2.0; }},
      // NaN fails every ordinary comparison - the checks must be written so
      // it still lands in the error branch.
      {"theta_r",
       [](core::PolarisConfig& c) {
         c.theta_r = std::numeric_limits<double>::quiet_NaN();
       }},
      {"learning_rate",
       [](core::PolarisConfig& c) {
         c.learning_rate = std::numeric_limits<double>::quiet_NaN();
       }},
      {"learning_rate",
       [](core::PolarisConfig& c) {
         c.learning_rate = std::numeric_limits<double>::infinity();
       }},
  };
  for (const auto& test_case : cases) {
    core::PolarisConfig config;
    test_case.corrupt(config);
    try {
      core::validate(config);
      FAIL() << test_case.knob << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(test_case.knob),
                std::string::npos)
          << "message does not name the knob: " << error.what();
    }
  }
}

TEST(ConfigValidate, ReportsAllProblemsAtOnce) {
  core::PolarisConfig config;
  config.theta_r = 2.0;
  config.iterations = 0;
  config.tvla.traces = 63;
  try {
    core::validate(config);
    FAIL() << "invalid config accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("theta_r"), std::string::npos);
    EXPECT_NE(what.find("iterations"), std::string::npos);
    EXPECT_NE(what.find("tvla.traces"), std::string::npos);
  }
}

TEST(ConfigValidate, PolarisConstructorEnforcesIt) {
  core::PolarisConfig config;
  config.tvla.traces = 1000;  // not a multiple of 64
  EXPECT_THROW(core::Polaris{config}, std::invalid_argument);
}

TEST(ConfigModelKind, ParsesUserSpellings) {
  using core::ModelKind;
  EXPECT_EQ(ml::model_kind_from_string("adaboost"), ModelKind::kAdaBoost);
  EXPECT_EQ(ml::model_kind_from_string("AdaBoost"), ModelKind::kAdaBoost);
  EXPECT_EQ(ml::model_kind_from_string("rf"), ModelKind::kRandomForest);
  EXPECT_EQ(ml::model_kind_from_string("random-forest"),
            ModelKind::kRandomForest);
  EXPECT_EQ(ml::model_kind_from_string("xgboost"), ModelKind::kXgboost);
  EXPECT_EQ(ml::model_kind_from_string("gbdt"), ModelKind::kXgboost);
  EXPECT_EQ(ml::model_kind_from_string("tree"), ModelKind::kDecisionTree);
  EXPECT_EQ(ml::model_kind_from_string("dt"), ModelKind::kDecisionTree);
  EXPECT_THROW((void)ml::model_kind_from_string("svm"),
               std::invalid_argument);
  EXPECT_EQ(ml::to_string(ModelKind::kDecisionTree), "DecisionTree");
}

TEST(ConfigModelKind, DecisionTreeIsConstructible) {
  core::PolarisConfig config;
  config.model = core::ModelKind::kDecisionTree;
  EXPECT_EQ(core::make_model(config)->name(), "DecisionTree");
}

TEST(ConfigIo, RoundTripsEveryKnob) {
  core::PolarisConfig config;
  config.mask_size = 77;
  config.locality = 3;
  config.iterations = 12;
  config.theta_r = 0.55;
  config.model = core::ModelKind::kXgboost;
  config.learning_rate = 0.02;
  config.model_rounds = 150;
  config.handle_imbalance = false;
  config.tvla.traces = 1024;
  config.tvla.warmup_cycles = 7;
  config.tvla.cycles_per_batch = 16;
  config.tvla.threshold = 3.5;
  config.tvla.seed = 42;
  config.tvla.threads = 4;
  config.tvla.noise_std_fj = 2.25;
  config.tvla.input_class = {tvla::InputClass::kSensitive,
                             tvla::InputClass::kFixedCommon,
                             tvla::InputClass::kRandomCommon};
  config.tvla.fixed_input = {true, false, true};
  config.min_leak_for_label = 1.75;
  config.scheme = masking::Scheme::kDom;
  config.coherence_smoothing = 0.25;
  config.seed = 9;
  config.threads = 2;

  serialize::Writer out;
  out.begin_chunk("CONF");
  core::write_config(out, config);
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("CONF");
  const auto loaded = core::read_config(in);
  in.exit_chunk();

  EXPECT_EQ(loaded.mask_size, config.mask_size);
  EXPECT_EQ(loaded.locality, config.locality);
  EXPECT_EQ(loaded.iterations, config.iterations);
  EXPECT_EQ(loaded.theta_r, config.theta_r);
  EXPECT_EQ(loaded.model, config.model);
  EXPECT_EQ(loaded.learning_rate, config.learning_rate);
  EXPECT_EQ(loaded.model_rounds, config.model_rounds);
  EXPECT_EQ(loaded.handle_imbalance, config.handle_imbalance);
  EXPECT_EQ(loaded.tvla.traces, config.tvla.traces);
  EXPECT_EQ(loaded.tvla.warmup_cycles, config.tvla.warmup_cycles);
  EXPECT_EQ(loaded.tvla.cycles_per_batch, config.tvla.cycles_per_batch);
  EXPECT_EQ(loaded.tvla.threshold, config.tvla.threshold);
  EXPECT_EQ(loaded.tvla.seed, config.tvla.seed);
  EXPECT_EQ(loaded.tvla.threads, config.tvla.threads);
  EXPECT_EQ(loaded.tvla.noise_std_fj, config.tvla.noise_std_fj);
  EXPECT_EQ(loaded.tvla.input_class, config.tvla.input_class);
  EXPECT_EQ(loaded.tvla.fixed_input, config.tvla.fixed_input);
  EXPECT_EQ(loaded.tvla.fixed_input_b, config.tvla.fixed_input_b);
  EXPECT_EQ(loaded.min_leak_for_label, config.min_leak_for_label);
  EXPECT_EQ(loaded.scheme, config.scheme);
  EXPECT_EQ(loaded.coherence_smoothing, config.coherence_smoothing);
  EXPECT_EQ(loaded.seed, config.seed);
  EXPECT_EQ(loaded.threads, config.threads);
}

TEST(ConfigIo, RoundTripsEarlyStopBudget) {
  core::PolarisConfig config;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 768;
  config.tvla.budget.margin = 0.25;

  serialize::Writer out;
  out.begin_chunk("CONF");
  core::write_config(out, config);
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("CONF");
  const auto loaded = core::read_config(in);
  in.exit_chunk();

  EXPECT_TRUE(loaded.tvla.budget.enabled);
  EXPECT_EQ(loaded.tvla.budget.min_traces, 768u);
  EXPECT_EQ(loaded.tvla.budget.margin, 0.25);
}

TEST(ConfigIo, DisabledBudgetKeepsTheVersion1ByteLayout) {
  // A config without early stopping must serialize exactly as before the
  // budget fields existed - bundles and wire requests stay byte-stable.
  const auto encode = [](const core::PolarisConfig& config) {
    serialize::Writer out;
    out.begin_chunk("CONF");
    core::write_config(out, config);
    out.end_chunk();
    return out.finish();
  };
  core::PolarisConfig disabled;
  core::PolarisConfig enabled;
  enabled.tvla.budget.enabled = true;
  const auto disabled_bytes = encode(disabled);
  const auto enabled_bytes = encode(enabled);
  EXPECT_LT(disabled_bytes.size(), enabled_bytes.size());

  serialize::Reader in(disabled_bytes);
  in.enter_chunk("CONF");
  EXPECT_FALSE(core::read_config(in).tvla.budget.enabled);
  in.exit_chunk();
}

TEST(ConfigIo, UnknownInputClassByteIsRefused) {
  // InputClass has three values. Any other byte, from a bundle's CONF or
  // an AUDQ/SHRQ request, would reach tvla::run as an input that no target
  // rule covers: held at 0 in every target vector while its base vector
  // stays random - a silently different protocol.
  const auto decode_with_class = [](std::uint8_t byte) {
    core::PolarisConfig config;
    config.tvla.input_class = {tvla::InputClass::kSensitive,
                               static_cast<tvla::InputClass>(byte)};
    serialize::Writer out;
    out.begin_chunk("CONF");
    core::write_config(out, config);
    out.end_chunk();
    serialize::Reader in(out.finish());
    in.enter_chunk("CONF");
    return core::read_config(in);
  };
  EXPECT_EQ(decode_with_class(2).tvla.input_class.at(1),
            tvla::InputClass::kRandomCommon);
  EXPECT_THROW((void)decode_with_class(3), std::runtime_error);
  EXPECT_THROW((void)decode_with_class(255), std::runtime_error);
}

TEST(ConfigValidate, BudgetKnobsAreChecked) {
  core::PolarisConfig config;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 0;
  EXPECT_THROW(core::validate(config), std::invalid_argument);
  config.tvla.budget.min_traces = 256;
  config.tvla.budget.margin = -0.5;
  EXPECT_THROW(core::validate(config), std::invalid_argument);
  config.tvla.budget.margin = 0.5;
  core::validate(config);

  // Disabled budgets are inert: their knobs are never reached.
  config.tvla.budget.enabled = false;
  config.tvla.budget.min_traces = 0;
  core::validate(config);
}

TEST(ConfigFingerprint, DisabledBudgetDoesNotChangeIdentity) {
  core::PolarisConfig a;
  core::PolarisConfig b;
  // Knob values behind a disabled budget are unreachable, so they must
  // not perturb the fingerprint (cache keys, bundle identity).
  b.tvla.budget.min_traces = 4096;
  b.tvla.budget.margin = 2.0;
  EXPECT_EQ(core::config_fingerprint(a), core::config_fingerprint(b));

  // Enabling early stopping changes results, so it must change identity.
  b.tvla.budget.enabled = true;
  EXPECT_NE(core::config_fingerprint(a), core::config_fingerprint(b));
}

TEST(ConfigFingerprint, StableAndThreadInvariant) {
  core::PolarisConfig a;
  core::PolarisConfig b;
  EXPECT_EQ(core::config_fingerprint(a), core::config_fingerprint(b));

  // Thread counts never change results, so they must not change identity.
  b.threads = 16;
  b.tvla.threads = 3;
  EXPECT_EQ(core::config_fingerprint(a), core::config_fingerprint(b));

  // Any result-relevant knob must.
  b.theta_r = 0.71;
  EXPECT_NE(core::config_fingerprint(a), core::config_fingerprint(b));
}

}  // namespace
