// Sequential early-stopping TVLA (TvlaBudget): the checkpoint schedule and
// stop decisions must be pure functions of the campaign (batch count, seed,
// budget knobs) - bit-identical across thread counts and lane-block widths
// - and a budget that never decides must reproduce the fixed-budget report
// bit-for-bit (the checkpointed path merges the same shard sequence in the
// same order, so the float op sequence is unchanged).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuits/arith.hpp"
#include "engine/scheduler.hpp"
#include "netlist/netlist.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::NetId;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// y = a & b, both inputs sensitive: leaks hard, so a budget-enabled
/// campaign decides "leaky" long before the full budget runs.
netlist::Netlist leaky_netlist() {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_cell(CellType::kAnd, {a, b});
  nl.mark_output(y);
  return nl;
}

tvla::TvlaConfig budget_config(std::size_t traces, std::size_t min_traces) {
  tvla::TvlaConfig config;
  config.traces = traces;
  config.noise_std_fj = 0.1;
  config.budget.enabled = true;
  config.budget.min_traces = min_traces;
  return config;
}

void expect_reports_bit_identical(const tvla::LeakageReport& a,
                                  const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g;
  }
}

TEST(AdaptiveTvla, StopDecisionIsIdenticalAcrossThreadsAndLaneWords) {
  const auto nl = leaky_netlist();
  const auto config = budget_config(8192, 512);

  tvla::TvlaConfig reference_config = config;
  reference_config.threads = 1;
  reference_config.lane_words = 1;
  const auto reference = tvla::run_fixed_vs_random(nl, lib(), reference_config);
  ASSERT_TRUE(reference.early_stopped());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t lane_words : {1u, 4u}) {
      tvla::TvlaConfig sweep = config;
      sweep.threads = threads;
      sweep.lane_words = lane_words;
      const auto report = tvla::run_fixed_vs_random(nl, lib(), sweep);
      EXPECT_EQ(report.early_stopped(), reference.early_stopped())
          << threads << "t/" << lane_words << "w";
      EXPECT_EQ(report.traces_used(), reference.traces_used())
          << threads << "t/" << lane_words << "w";
      expect_reports_bit_identical(report, reference);
    }
  }
}

TEST(AdaptiveTvla, EarlyStopSavesTracesAtTheSameVerdict) {
  const auto nl = leaky_netlist();

  tvla::TvlaConfig fixed;
  fixed.traces = 8192;
  fixed.noise_std_fj = 0.1;
  const auto full = tvla::run_fixed_vs_random(nl, lib(), fixed);

  const auto report =
      tvla::run_fixed_vs_random(nl, lib(), budget_config(8192, 512));
  EXPECT_TRUE(report.early_stopped());
  EXPECT_LT(report.traces_used(), 8192u);
  EXPECT_GE(report.traces_used(), 512u);
  // Fewer traces shift the t magnitudes, but the verdict must agree.
  EXPECT_EQ(report.leaky_groups(), full.leaky_groups());
  // The fixed path never populates trace usage.
  EXPECT_EQ(full.traces_used(), 0u);
  EXPECT_FALSE(full.early_stopped());
}

TEST(AdaptiveTvla, UndecidedBudgetMatchesFixedPathBitIdentically) {
  // An unreachable margin keeps every checkpoint undecided, so the
  // campaign runs its full budget through the checkpointed merge path -
  // which must reproduce the fixed path's floats exactly.
  const auto nl = circuits::make_adder(8);
  tvla::TvlaConfig fixed;
  fixed.traces = 2048;
  fixed.seed = 33;
  const auto expected = tvla::run_fixed_vs_random(nl, lib(), fixed);

  tvla::TvlaConfig undecided = fixed;
  undecided.budget.enabled = true;
  undecided.budget.min_traces = 128;
  undecided.budget.margin = 1e18;
  const auto report = tvla::run_fixed_vs_random(nl, lib(), undecided);
  EXPECT_FALSE(report.early_stopped());
  EXPECT_EQ(report.traces_used(), 2048u);
  expect_reports_bit_identical(report, expected);
}

TEST(AdaptiveTvla, ProgressFiresInMilestoneOrderWithPartialReports) {
  const auto nl = leaky_netlist();
  const auto config = budget_config(8192, 512);

  std::vector<std::size_t> checkpoints;
  engine::Scheduler scheduler(4);
  auto campaign = tvla::submit(
      scheduler,
      {.design = &nl,
       .lib = &lib(),
       .config = config,
       .progress = [&](const tvla::LeakageReport& partial,
                       std::size_t traces_done) {
         // Called under the campaign merge lock: plain vector is safe.
         checkpoints.push_back(traces_done);
         EXPECT_EQ(partial.t_values().size(), nl.gate_count());
         EXPECT_EQ(partial.traces_used(), traces_done);
       }});
  scheduler.drain();
  const auto report = campaign.get();

  ASSERT_FALSE(checkpoints.empty());
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_LT(checkpoints[i - 1], checkpoints[i]);
  }
  EXPECT_GE(checkpoints.front(), 512u);
  EXPECT_LE(checkpoints.back(), 8192u);
  // The campaign stopped at the last checkpoint the observer saw.
  ASSERT_TRUE(report.early_stopped());
  EXPECT_EQ(report.traces_used(), checkpoints.back());
}

TEST(AdaptiveTvla, SchedulerSubmissionMatchesSynchronousRun) {
  const auto nl = leaky_netlist();
  const auto config = budget_config(8192, 512);
  const auto synchronous = tvla::run_fixed_vs_random(nl, lib(), config);

  engine::Scheduler scheduler(3);
  const tvla::CampaignSpec spec{.design = &nl, .lib = &lib(), .config = config};
  auto a = tvla::submit(scheduler, spec);
  // A second campaign interleaves in the same queue; both must still stop
  // at the same milestone with the same stats.
  auto b = tvla::submit(scheduler, spec);
  scheduler.drain();
  for (auto* campaign : {&a, &b}) {
    const auto report = campaign->get();
    EXPECT_EQ(report.early_stopped(), synchronous.early_stopped());
    EXPECT_EQ(report.traces_used(), synchronous.traces_used());
    expect_reports_bit_identical(report, synchronous);
  }
}

TEST(AdaptiveTvla, EnabledBudgetRequiresPositiveMinTraces) {
  tvla::TvlaConfig config = budget_config(1024, 0);
  EXPECT_THROW((void)tvla::run_fixed_vs_random(leaky_netlist(), lib(), config),
               std::invalid_argument);
}

}  // namespace
