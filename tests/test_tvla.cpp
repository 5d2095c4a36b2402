#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/memctrl.hpp"
#include "netlist/netlist.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::NetId;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

TEST(Tvla, DetectsDataDependentGate) {
  // y = a & b with both inputs sensitive: toggles correlate strongly with
  // the fixed-vs-random split.
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_cell(CellType::kAnd, {a, b});
  nl.mark_output(y);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.noise_std_fj = 0.5;
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  EXPECT_GT(std::fabs(report.t_value(nl.net(y).driver)), 4.5);
  EXPECT_FALSE(report.leaky_groups().empty());
}

TEST(Tvla, NoFalsePositivesOnRandomCommonInputs) {
  // All inputs random-common: both classes see identical stimulus
  // distributions, so nothing may exceed the threshold.
  const auto nl = circuits::make_multiplier(6);
  tvla::TvlaConfig config;
  config.traces = 4096;
  config.input_class.assign(nl.primary_inputs().size(),
                            tvla::InputClass::kRandomCommon);
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  EXPECT_TRUE(report.leaky_groups().empty());
}

TEST(Tvla, FixedCommonInputsProduceNoActivity) {
  // A cone fed only by the fixed key never toggles -> t exactly 0. A
  // *linear* mix (XOR) of key and data has class-independent toggle
  // statistics (Bernoulli(1/2) either way) -> not flagged. The nonlinear
  // AND of two data bits IS flagged: its settled value is constant in the
  // fixed class, skewing the transition probability.
  netlist::Netlist nl;
  const NetId key = nl.add_input("key");
  const NetId d1 = nl.add_input("d1");
  const NetId d2 = nl.add_input("d2");
  const NetId key_only = nl.add_cell(CellType::kNot, {key});
  const NetId linear_mix = nl.add_cell(CellType::kXor, {key, d1});
  const NetId nonlinear = nl.add_cell(CellType::kAnd, {d1, d2});
  nl.mark_output(key_only);
  nl.mark_output(linear_mix);
  nl.mark_output(nonlinear);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.noise_std_fj = 0.5;
  config.input_class = {tvla::InputClass::kFixedCommon,
                        tvla::InputClass::kSensitive,
                        tvla::InputClass::kSensitive};
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  EXPECT_EQ(report.t_value(nl.net(key_only).driver), 0.0);
  EXPECT_LT(std::fabs(report.t_value(nl.net(linear_mix).driver)), 4.5);
  EXPECT_GT(std::fabs(report.t_value(nl.net(nonlinear).driver)), 4.5);
}

TEST(Tvla, DeterministicForSeed) {
  const auto nl = circuits::make_adder(8);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 33;
  const auto a = tvla::run_fixed_vs_random(nl, lib(), config);
  const auto b = tvla::run_fixed_vs_random(nl, lib(), config);
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    EXPECT_DOUBLE_EQ(a.t_values()[g], b.t_values()[g]);
  }
  config.seed = 34;
  const auto c = tvla::run_fixed_vs_random(nl, lib(), config);
  bool any_different = false;
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    if (a.t_values()[g] != c.t_values()[g]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Tvla, ZeroTracesYieldsAllZero) {
  const auto nl = circuits::make_adder(4);
  tvla::TvlaConfig config;
  config.traces = 0;
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  for (const double t : report.t_values()) EXPECT_EQ(t, 0.0);
  EXPECT_TRUE(report.leaky_groups().empty());
  EXPECT_EQ(report.total_abs_t(), 0.0);
}

TEST(Tvla, NoiseFloorShrinksT) {
  const auto nl = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig quiet;
  quiet.traces = 4096;
  quiet.noise_std_fj = 0.2;
  tvla::TvlaConfig loud = quiet;
  loud.noise_std_fj = 8.0;
  const auto report_quiet = tvla::run_fixed_vs_random(nl, lib(), quiet);
  const auto report_loud = tvla::run_fixed_vs_random(nl, lib(), loud);
  EXPECT_GT(report_quiet.total_abs_t(), report_loud.total_abs_t() * 2.0);
}

TEST(Tvla, MoreTracesFindMoreLeaks) {
  const auto nl = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig small;
  small.traces = 512;
  small.noise_std_fj = 2.0;
  tvla::TvlaConfig big = small;
  big.traces = 16384;
  const auto report_small = tvla::run_fixed_vs_random(nl, lib(), small);
  const auto report_big = tvla::run_fixed_vs_random(nl, lib(), big);
  EXPECT_GE(report_big.leaky_count(), report_small.leaky_count());
  EXPECT_GT(report_big.leaky_count(), 0u);
}

TEST(Tvla, SequentialDesignRuns) {
  const auto nl = circuits::make_memctrl(6, 8);
  tvla::TvlaConfig config;
  config.traces = 16384;
  config.cycles_per_batch = 16;
  config.noise_std_fj = 0.8;
  // Inputs: req_valid, req_rw, row(6), col(6), wdata(8), wmask(8).
  config.input_class.assign(nl.primary_inputs().size(),
                            tvla::InputClass::kRandomCommon);
  for (std::size_t i = 2 + 12; i < 2 + 12 + 8; ++i) {
    config.input_class[i] = tvla::InputClass::kSensitive;
  }
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  for (const double t : report.t_values()) EXPECT_TRUE(std::isfinite(t));
  // The write-data merge / DQ-bus cone is data-dependent: gates must leak.
  EXPECT_GT(report.leaky_count(), 0u);
}

TEST(Tvla, FixedInputBIsIgnored) {
  // fixed_input_b stays in TvlaConfig only for the CONF layout: a campaign
  // with it set, even to the wrong length, reports the bits it reports
  // with it empty.
  const auto nl = circuits::make_adder(4);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 5;
  const auto reference = tvla::run_fixed_vs_random(nl, lib(), config);
  config.fixed_input_b = {true};
  const auto ignored = tvla::run_fixed_vs_random(nl, lib(), config);
  ASSERT_EQ(ignored.group_count(), reference.group_count());
  for (std::size_t g = 0; g < reference.group_count(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ignored.t_value(g)),
              std::bit_cast<std::uint64_t>(reference.t_value(g)))
        << "group " << g;
    EXPECT_EQ(ignored.measured(g), reference.measured(g)) << "group " << g;
  }
}

TEST(Tvla, ReportAccessorsConsistent) {
  const auto nl = circuits::make_adder(6);
  tvla::TvlaConfig config;
  config.traces = 2048;
  const auto report = tvla::run_fixed_vs_random(nl, lib(), config);
  EXPECT_EQ(report.group_count(), nl.gate_count());
  EXPECT_GT(report.measured_count(), 0u);
  EXPECT_LE(report.measured_count(), report.group_count());
  EXPECT_NEAR(report.leakage_per_gate(),
              report.total_abs_t() / report.measured_count(), 1e-12);
  // leaky_groups is sorted by |t| descending.
  const auto leaky = report.leaky_groups();
  for (std::size_t i = 1; i < leaky.size(); ++i) {
    EXPECT_GE(std::fabs(report.t_value(leaky[i - 1])),
              std::fabs(report.t_value(leaky[i])));
  }
}

TEST(Tvla, ConfigValidation) {
  const auto nl = circuits::make_adder(4);
  tvla::TvlaConfig config;
  config.fixed_input = {true};  // wrong size
  EXPECT_THROW((void)tvla::run_fixed_vs_random(nl, lib(), config),
               std::invalid_argument);
  tvla::TvlaConfig config2;
  config2.input_class = {tvla::InputClass::kSensitive};  // wrong size
  EXPECT_THROW((void)tvla::run_fixed_vs_random(nl, lib(), config2),
               std::invalid_argument);
}

TEST(Tvla, SequentialDesignRejectsZeroCyclesPerBatch) {
  // A sequential batch packs 64 * cycles_per_batch samples, and the batch
  // count divides by that: zero must be refused, not divided by.
  const auto nl = circuits::make_memctrl(6, 8);
  tvla::TvlaConfig config;
  config.cycles_per_batch = 0;
  EXPECT_THROW((void)tvla::run_fixed_vs_random(nl, lib(), config),
               std::invalid_argument);
  EXPECT_THROW(tvla::ShardRunner(nl, lib(), config), std::invalid_argument);
}

}  // namespace
