// Property harness for the compiled simulation kernel (sim/compiled.hpp):
// randomized netlists evaluated by the compiled kernel vs the reference
// gate-by-gate oracle (sim/reference.hpp), asserting bit-identical value
// and toggle words at 1- and 4-word lane blocks (per-lane energy is a
// function of the toggle words); TVLA campaigns over the kernel are
// checked bit-identical across 1/2/8 threads, across lane widths, and
// against a campaign over a pre-compiled plan. The counting eval's
// per-slot toggle counts are checked against the popcounts of the stored
// toggle words. tests/test_golden.cpp
// remains the end-to-end determinism lock (committed CSVs, byte-stable).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "circuits/random_logic.hpp"
#include "circuits/suite.hpp"
#include "masking/masking.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/reference.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "tvla/tvla.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::GateId;
using netlist::NetId;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// Drives both simulators with identical stimulus for `cycles` evals and
/// asserts bit-identical values (every net) and toggles (every gate) after
/// each eval. Both consume their internal RNGs in the same order, so
/// seeding them identically keeps kRand streams equal.
void expect_lockstep(const netlist::Netlist& design, std::uint64_t seed,
                     std::size_t cycles, bool latch) {
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, seed);
  sim::ReferenceSimulator oracle(design, seed);
  util::Xoshiro256 stimulus(seed ^ 0x57151u);

  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
      const std::uint64_t word = stimulus();
      fast.set_input(i, word);
      oracle.set_input(i, word);
    }
    fast.eval();
    oracle.eval();

    for (NetId n = 0; n < design.net_count(); ++n) {
      ASSERT_EQ(fast.value(n), oracle.value(n))
          << "net " << n << " cycle " << c;
    }
    for (GateId g = 0; g < design.gate_count(); ++g) {
      ASSERT_EQ(fast.toggles(g), oracle.toggles(g))
          << "gate " << g << " cycle " << c;
    }
    if (latch) {
      fast.latch();
      oracle.latch();
    }
  }
}

/// Blocked lockstep: one K-word Simulator vs K independent single-word
/// oracles. Oracle w is seeded Simulator::word_seed(seed, w) - the same
/// stream the blocked simulator assigns to lane word w - and receives the
/// same per-word stimulus, so every lane word must match its oracle's
/// values and toggles bit-for-bit, at both block widths.
void expect_blocked_lockstep(const netlist::Netlist& design,
                             std::uint64_t seed, std::size_t lane_words,
                             std::size_t cycles, bool latch) {
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, seed, lane_words);
  ASSERT_EQ(fast.lane_words(), lane_words);
  std::vector<std::unique_ptr<sim::ReferenceSimulator>> oracles;
  for (std::size_t w = 0; w < lane_words; ++w) {
    oracles.push_back(std::make_unique<sim::ReferenceSimulator>(
        design, sim::Simulator::word_seed(seed, w)));
  }
  util::Xoshiro256 stimulus(seed ^ 0xb10cull);

  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        const std::uint64_t word = stimulus();
        fast.set_input_word(i, w, word);
        oracles[w]->set_input(i, word);
      }
    }
    fast.eval();
    for (auto& oracle : oracles) oracle->eval();

    for (std::size_t w = 0; w < lane_words; ++w) {
      for (NetId n = 0; n < design.net_count(); ++n) {
        ASSERT_EQ(fast.value_word(n, w), oracles[w]->value(n))
            << "net " << n << " word " << w << " cycle " << c;
      }
      for (GateId g = 0; g < design.gate_count(); ++g) {
        ASSERT_EQ(fast.toggles_word(g, w), oracles[w]->toggles(g))
            << "gate " << g << " word " << w << " cycle " << c;
      }
    }
    if (latch) {
      fast.latch();
      for (auto& oracle : oracles) oracle->latch();
    }
  }
}

TEST(CompiledKernel, RandomLogicMatchesOracle) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    circuits::RandomLogicConfig config;
    config.inputs = 24;
    config.gates = 300;
    config.outputs = 12;
    config.seed = seed;
    const auto design = circuits::make_random_logic(config);
    expect_lockstep(design, /*seed=*/seed * 1337 + 1, /*cycles=*/16,
                    /*latch=*/false);
  }
}

TEST(CompiledKernel, MaskedRandomLogicMatchesOracle) {
  // Masking adds kRand sources and multi-member groups: exercises the RNG
  // stream order contract and the multi bucket of the sampling plan.
  circuits::RandomLogicConfig config;
  config.inputs = 16;
  config.gates = 200;
  config.seed = 5;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 3 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  ASSERT_GT(masked.added_rand_bits, 0u);
  expect_lockstep(masked.design, /*seed=*/77, /*cycles=*/16, /*latch=*/false);
}

TEST(CompiledKernel, SequentialDesignMatchesOracle) {
  // DFF state, latch(), and the q-slot write path over many cycles.
  const auto design = circuits::get_design("memctrl", 0.3);
  expect_lockstep(design.netlist, /*seed=*/11, /*cycles=*/24, /*latch=*/true);
}

TEST(CompiledKernel, EvalSingleMatchesOracle) {
  circuits::RandomLogicConfig config;
  config.inputs = 12;
  config.gates = 120;
  config.seed = 29;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  sim::Simulator fast(compiled, 1);
  sim::ReferenceSimulator oracle(design, 1);
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> bits(design.primary_inputs().size());
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (rng() & 1) != 0;
    EXPECT_EQ(fast.eval_single(bits), oracle.eval_single(bits));
  }
}

TEST(CompiledKernel, ResetAndReseedMatchOracle) {
  const auto design = circuits::get_design("memctrl", 0.25);
  const auto compiled = sim::compile(design.netlist);
  sim::Simulator fast(compiled, 9);
  sim::ReferenceSimulator oracle(design.netlist, 9);
  for (int round = 0; round < 3; ++round) {
    fast.reset(100 + round);
    oracle.reset(100 + round);
    for (int c = 0; c < 6; ++c) {
      fast.set_inputs_random();
      oracle.set_inputs_random();
      fast.eval();
      oracle.eval();
      for (NetId n = 0; n < design.netlist.net_count(); ++n) {
        ASSERT_EQ(fast.value(n), oracle.value(n));
      }
      fast.latch();
      oracle.latch();
    }
  }
}

TEST(CompiledKernel, PrimaryInputTogglesReadZeroAfterEval) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_cell(CellType::kNot, {a}));
  sim::Simulator sim(nl);
  sim.set_input(0, 0);
  sim.eval();
  sim.set_input(0, ~0ULL);
  sim.eval();
  EXPECT_EQ(sim.toggles(nl.net(a).driver), 0u);  // staged writes: toggle 0
}

TEST(CompiledKernel, CompileValidatesOnce) {
  circuits::RandomLogicConfig config;
  config.gates = 150;
  config.seed = 2;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  EXPECT_EQ(compiled->slot_count(), design.net_count());
  EXPECT_GE(compiled->level_count(), 1u);
  // Batching is a compression: never more runs than combinational gates.
  EXPECT_LE(compiled->run_count(), design.combinational_gate_count());
  // Every net owns a distinct slot (dense renumbering is a bijection).
  std::vector<bool> seen(design.net_count(), false);
  for (NetId n = 0; n < design.net_count(); ++n) {
    const std::uint32_t slot = compiled->slot(n);
    ASSERT_LT(slot, design.net_count());
    ASSERT_FALSE(seen[slot]);
    seen[slot] = true;
  }
}

TEST(CompiledKernel, SamplePlanPreservesAscendingOrderWithinGroups) {
  circuits::RandomLogicConfig config;
  config.gates = 180;
  config.seed = 13;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(original, targets);
  const auto compiled = sim::compile(masked.design);
  const power::PowerModel power(masked.design, lib());
  const power::SamplePlan plan(*compiled, power);
  ASSERT_GT(plan.multi_group_count(), 0u);

  // The accumulation-order contract (DESIGN.md): each multi group's
  // members are ascending by GateId, and every active member of a multi
  // group appears exactly once, in its own group's run. Toggle slots map
  // back to gates one to one.
  std::map<std::uint32_t, GateId> gate_of_slot;
  for (const GateId g : power.active_gates()) {
    gate_of_slot.emplace(compiled->toggle_slot(g), g);
  }
  std::vector<bool> seen(masked.design.gate_count(), false);
  std::size_t members = 0;
  for (std::size_t m = 0; m < plan.multi_group_count(); ++m) {
    bool first = true;
    GateId previous_gate = 0;
    for (const auto& op : plan.multi_members(m)) {
      ASSERT_EQ(op.multi, m);
      const auto found = gate_of_slot.find(op.toggle_slot);
      ASSERT_NE(found, gate_of_slot.end());
      const GateId g = found->second;
      EXPECT_EQ(plan.group_multi_index(masked.design.gate(g).group), m);
      EXPECT_EQ(op.energy, power.gate_energy(g));
      if (!first) {
        EXPECT_GT(g, previous_gate) << "multi group " << m;
      }
      EXPECT_FALSE(seen[g]) << "gate " << g << " appears twice";
      seen[g] = true;
      first = false;
      previous_gate = g;
      ++members;
    }
  }
  std::size_t active_multi_members = 0;
  for (const GateId g : power.active_gates()) {
    const GateId group = masked.design.gate(g).group;
    if (plan.group_multi_index(group) == power::SamplePlan::kNotMulti) continue;
    EXPECT_TRUE(seen[g]) << "gate " << g << " missing";
    ++active_multi_members;
  }
  EXPECT_EQ(members, active_multi_members);
  EXPECT_EQ(members, plan.multis().size());
}

/// Plain square (single-member groups only) and a masked copy, whose
/// masked composites and demask-charged readers are multi-member groups:
/// the two readouts every campaign identity test covers.
std::vector<netlist::Netlist> identity_designs() {
  const auto square = circuits::get_design("square", 0.3);
  std::vector<GateId> targets;
  for (GateId g = 0; g < square.netlist.gate_count(); ++g) {
    if (netlist::is_maskable(square.netlist.gate(g).type) && g % 3 == 0) {
      targets.push_back(g);
    }
  }
  auto masked = masking::apply_masking(square.netlist, targets).design;
  std::vector<netlist::Netlist> designs;
  designs.push_back(square.netlist);
  designs.push_back(std::move(masked));
  return designs;
}

TEST(CompiledKernel, CampaignBitIdenticalAcrossThreads) {
  for (const auto& design : identity_designs()) {
    SCOPED_TRACE(design.gate_count());
    tvla::TvlaConfig config;
    config.traces = 2048;
    config.seed = 77;
    config.noise_std_fj = 1.0;

    config.threads = 1;
    const auto t1 = tvla::run_fixed_vs_random(design, lib(), config);
    for (const std::size_t threads : {2u, 8u}) {
      config.threads = threads;
      const auto tn = tvla::run_fixed_vs_random(design, lib(), config);
      ASSERT_EQ(t1.t_values().size(), tn.t_values().size());
      for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
        ASSERT_EQ(t1.t_values()[g], tn.t_values()[g]) << "threads=" << threads;
      }
    }

    // A pre-compiled plan in the spec shares one CompiledDesign across
    // campaigns and still reproduces the same report bit-for-bit.
    const auto compiled = sim::compile(design);
    config.threads = 2;
    const auto shared_plan =
        tvla::run({.compiled = compiled, .lib = &lib(), .config = config});
    for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
      ASSERT_EQ(t1.t_values()[g], shared_plan.t_values()[g]);
    }
  }
}

TEST(CompiledKernel, SequentialCampaignBitIdenticalAcrossThreads) {
  const auto design = circuits::get_design("memctrl", 0.3);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.cycles_per_batch = 8;
  config.seed = 31;
  config.noise_std_fj = 1.0;

  config.threads = 1;
  const auto t1 = tvla::run_fixed_vs_random(design.netlist, lib(), config);
  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const auto tn = tvla::run_fixed_vs_random(design.netlist, lib(), config);
    for (std::size_t g = 0; g < t1.t_values().size(); ++g) {
      ASSERT_EQ(t1.t_values()[g], tn.t_values()[g]) << "threads=" << threads;
    }
  }
}

TEST(CompiledKernel, BlockedLockstepRandomLogic) {
  circuits::RandomLogicConfig config;
  config.inputs = 20;
  config.gates = 250;
  config.outputs = 10;
  config.seed = 41;
  const auto design = circuits::make_random_logic(config);
  for (const std::size_t lane_words : {1u, 4u}) {
    expect_blocked_lockstep(design, /*seed=*/901 + lane_words, lane_words,
                            /*cycles=*/8, /*latch=*/false);
  }
}

TEST(CompiledKernel, BlockedLockstepMaskedDesign) {
  // kRand refresh draws slot-ascending PER WORD STREAM: oracle w must see
  // exactly the blocked simulator's word-w share stream.
  circuits::RandomLogicConfig config;
  config.inputs = 14;
  config.gates = 160;
  config.seed = 8;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 2 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  ASSERT_GT(masked.added_rand_bits, 0u);
  for (const std::size_t lane_words : {1u, 4u}) {
    expect_blocked_lockstep(masked.design, /*seed=*/55, lane_words,
                            /*cycles=*/8, /*latch=*/false);
  }
}

TEST(CompiledKernel, BlockedLockstepSequentialDesign) {
  // The Simulator supports K > 1 on sequential designs (blocked DFF state
  // and latch); only TVLA campaigns force lane_words = 1, for sample-order
  // reasons, not correctness ones.
  const auto design = circuits::get_design("memctrl", 0.25);
  for (const std::size_t lane_words : {1u, 4u}) {
    expect_blocked_lockstep(design.netlist, /*seed=*/23, lane_words,
                            /*cycles=*/12, /*latch=*/true);
  }
}

TEST(CompiledKernel, InvalidLaneWordsRejected) {
  circuits::RandomLogicConfig config;
  config.gates = 40;
  config.seed = 3;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);
  // The kernel tables hold 1- and 4-word blocks only.
  for (const std::size_t bad : {0u, 2u, 3u, 5u, 6u, 7u, 8u, 16u}) {
    EXPECT_THROW(sim::Simulator(compiled, 1, bad), std::invalid_argument)
        << "lane_words=" << bad;
  }
  tvla::TvlaConfig tvla_config;
  tvla_config.traces = 128;
  for (const std::size_t bad : {2u, 3u, 8u}) {
    tvla_config.lane_words = bad;
    EXPECT_THROW(tvla::run_fixed_vs_random(design, lib(), tvla_config),
                 std::invalid_argument)
        << "lane_words=" << bad;
  }
}

TEST(CompiledKernel, BufNotFusionPreservesResults) {
  // A buf/not level whose outputs feed exactly the next level fuses into
  // its consumer run (one dispatch fewer); outputs are still materialized
  // and bit-identical - checked against the oracle via lockstep.
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId na = nl.add_cell(CellType::kNot, {a});
  const NetId nb = nl.add_cell(CellType::kNot, {b});
  // Both consumers land in the single next run (same level, same kernel),
  // which is the fold precondition.
  nl.mark_output(nl.add_cell(CellType::kAnd, {na, nb}));
  nl.mark_output(nl.add_cell(CellType::kAnd, {na, b}));
  const auto compiled = sim::compile(nl);
  EXPECT_GT(compiled->fused_run_count(), 0u);
  expect_lockstep(nl, /*seed=*/19, /*cycles=*/8, /*latch=*/false);
  expect_blocked_lockstep(nl, /*seed=*/19, /*lane_words=*/4, /*cycles=*/8,
                          /*latch=*/false);
}

TEST(CompiledKernel, CampaignBitIdenticalAcrossLaneWords) {
  // 1984 traces = 31 batches: not a multiple of 4, so the 4-word width
  // exercises tail blocks inside shard ranges. lane_words is an execution
  // knob like threads: the report must be bit-identical for every setting
  // (0 = the 4-word default).
  for (const auto& design : identity_designs()) {
    SCOPED_TRACE(design.gate_count());
    tvla::TvlaConfig config;
    config.traces = 1984;
    config.seed = 77;
    config.noise_std_fj = 1.0;
    config.threads = 2;

    config.lane_words = 1;
    const auto base = tvla::run_fixed_vs_random(design, lib(), config);
    for (const std::size_t lane_words : {0u, 4u}) {
      config.lane_words = lane_words;
      const auto blocked = tvla::run_fixed_vs_random(design, lib(), config);
      ASSERT_EQ(base.t_values().size(), blocked.t_values().size());
      for (std::size_t g = 0; g < base.t_values().size(); ++g) {
        ASSERT_EQ(base.t_values()[g], blocked.t_values()[g])
            << "lane_words=" << lane_words;
      }
    }
  }
}

TEST(CompiledKernel, ForcedPortableMatchesForcedAvx2) {
  if (!(sim::avx2_built() && sim::avx2_supported())) {
    GTEST_SKIP() << "AVX2 unavailable on this build/host";
  }
  circuits::RandomLogicConfig config;
  config.inputs = 18;
  config.gates = 220;
  config.seed = 61;
  const auto design = circuits::make_random_logic(config);
  const auto compiled = sim::compile(design);

  // Run the same stimulus under each forced mode and compare every raw
  // value/toggle word: the instantiations share one kernel template, so
  // equality is by construction - this pins it against regressions.
  const auto run_mode = [&](sim::SimdMode mode, std::size_t lane_words,
                            std::vector<std::uint64_t>& values,
                            std::vector<std::uint64_t>& toggles) {
    sim::set_simd_mode(mode);
    sim::Simulator simulator(compiled, 5, lane_words);
    util::Xoshiro256 stimulus(0xf00du);
    for (std::size_t c = 0; c < 6; ++c) {
      for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
        for (std::size_t w = 0; w < lane_words; ++w) {
          simulator.set_input_word(i, w, stimulus());
        }
      }
      simulator.eval();
    }
    for (NetId n = 0; n < design.net_count(); ++n) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        values.push_back(simulator.value_word(n, w));
      }
    }
    for (GateId g = 0; g < design.gate_count(); ++g) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        toggles.push_back(simulator.toggles_word(g, w));
      }
    }
  };

  for (const std::size_t lane_words : {1u, 4u}) {
    std::vector<std::uint64_t> portable_values, portable_toggles;
    std::vector<std::uint64_t> avx2_values, avx2_toggles;
    run_mode(sim::SimdMode::kPortable, lane_words, portable_values,
             portable_toggles);
    run_mode(sim::SimdMode::kAvx2, lane_words, avx2_values, avx2_toggles);
    sim::set_simd_mode(sim::SimdMode::kAuto);
    EXPECT_EQ(portable_values, avx2_values) << "lane_words=" << lane_words;
    EXPECT_EQ(portable_toggles, avx2_toggles) << "lane_words=" << lane_words;
  }
}

/// Drives a counting simulator and a plain one in lockstep and checks, after
/// every eval, that the counting eval left the same values and toggle
/// words, and that each flagged slot's counts equal the popcounts of its
/// own stored toggle words over the sampled words: fixed-class lanes into
/// `fixed`, every sampled lane into `total`. Every third slot is not
/// flagged, and its counts must stay zero. The sampled word count cycles
/// through full blocks and tails; tail words carry zero masks.
void expect_counts_match_toggles(const netlist::Netlist& design,
                                 std::size_t lane_words, bool latch) {
  const auto compiled = sim::compile(design);
  sim::Simulator counting(compiled, 21, lane_words);
  sim::Simulator plain(compiled, 21, lane_words);
  std::vector<sim::ToggleCount> counts(compiled->slot_count());
  std::vector<sim::ToggleCount> expected(compiled->slot_count());
  std::vector<std::uint8_t> counted(compiled->slot_count());
  for (std::size_t slot = 0; slot < counted.size(); ++slot) {
    counted[slot] = slot % 3 != 1;
  }
  std::vector<std::uint64_t> fixed(lane_words), active(lane_words);
  util::Xoshiro256 stimulus(0xc0417ull);
  const std::size_t sampled_words[] = {lane_words, lane_words == 4 ? 3u : 1u,
                                       lane_words, 1u};
  for (std::size_t c = 0; c < 8; ++c) {
    const std::size_t sampled = sampled_words[c % 4];
    for (std::size_t w = 0; w < lane_words; ++w) {
      fixed[w] = w < sampled ? stimulus() : 0;
      active[w] = w < sampled ? ~0ULL : 0;
    }
    for (std::size_t i = 0; i < design.primary_inputs().size(); ++i) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        const std::uint64_t word = stimulus();
        counting.set_input_word(i, w, word);
        plain.set_input_word(i, w, word);
      }
    }
    counting.eval_counting(
        {counts.data(), counted.data(), fixed.data(), active.data()});
    plain.eval();

    const std::uint64_t* toggles = counting.toggle_words();
    for (std::size_t slot = 0; slot < compiled->slot_count(); ++slot) {
      for (std::size_t w = 0; w < sampled && counted[slot] != 0; ++w) {
        const std::uint64_t t = toggles[slot * lane_words + w];
        expected[slot].fixed +=
            static_cast<std::uint64_t>(std::popcount(t & fixed[w]));
        expected[slot].total += static_cast<std::uint64_t>(std::popcount(t));
      }
      ASSERT_EQ(counts[slot].fixed, expected[slot].fixed)
          << "slot " << slot << " cycle " << c;
      ASSERT_EQ(counts[slot].total, expected[slot].total)
          << "slot " << slot << " cycle " << c;
    }
    for (NetId n = 0; n < design.net_count(); ++n) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        ASSERT_EQ(counting.value_word(n, w), plain.value_word(n, w));
      }
    }
    for (GateId g = 0; g < design.gate_count(); ++g) {
      for (std::size_t w = 0; w < lane_words; ++w) {
        ASSERT_EQ(counting.toggles_word(g, w), plain.toggles_word(g, w));
      }
    }
    if (latch) {
      counting.latch();
      plain.latch();
    }
  }
  std::uint64_t total = 0;
  for (const auto& count : counts) total += count.total;
  EXPECT_GT(total, 0u);
}

TEST(CompiledKernel, CountingEvalMatchesStoredToggles) {
  // kRand sources are counted in the source refresh, op outputs in the
  // kernel's write step; the sequential design adds DFF q sources.
  circuits::RandomLogicConfig config;
  config.inputs = 16;
  config.gates = 220;
  config.seed = 47;
  const auto original = circuits::make_random_logic(config);
  std::vector<GateId> targets;
  for (GateId g = 0; g < original.gate_count(); ++g) {
    if (netlist::is_maskable(original.gate(g).type) && g % 3 == 0) {
      targets.push_back(g);
    }
  }
  const auto masked = masking::apply_masking(original, targets);
  ASSERT_GT(masked.added_rand_bits, 0u);
  const auto sequential = circuits::get_design("memctrl", 0.25);

  std::vector<sim::SimdMode> modes = {sim::SimdMode::kPortable};
  if (sim::avx2_built() && sim::avx2_supported()) {
    modes.push_back(sim::SimdMode::kAvx2);
  }
  for (const sim::SimdMode mode : modes) {
    sim::set_simd_mode(mode);
    for (const std::size_t lane_words : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "lane_words=" << lane_words << " avx2="
                   << (mode == sim::SimdMode::kAvx2));
      expect_counts_match_toggles(masked.design, lane_words, false);
      expect_counts_match_toggles(sequential.netlist, lane_words, true);
    }
  }
  sim::set_simd_mode(sim::SimdMode::kAuto);
}

TEST(CompiledKernel, MaskedCampaignForcedPortableMatchesForcedAvx2) {
  if (!(sim::avx2_built() && sim::avx2_supported())) {
    GTEST_SKIP() << "AVX2 unavailable on this build/host";
  }
  // The multi-group readout has a portable and an AVX2 kernel. The same
  // masked campaign under each forced mode must give identical t bits, at
  // one lane word (where the simulator itself stays portable) and at four.
  const auto design = identity_designs().back();
  tvla::TvlaConfig config;
  config.traces = 1984;
  config.seed = 5;
  config.noise_std_fj = 1.0;
  config.threads = 2;
  for (const std::size_t lane_words : {1u, 4u}) {
    config.lane_words = lane_words;
    sim::set_simd_mode(sim::SimdMode::kPortable);
    const auto portable = tvla::run_fixed_vs_random(design, lib(), config);
    sim::set_simd_mode(sim::SimdMode::kAvx2);
    const auto avx2 = tvla::run_fixed_vs_random(design, lib(), config);
    sim::set_simd_mode(sim::SimdMode::kAuto);
    ASSERT_EQ(portable.t_values().size(), avx2.t_values().size());
    for (std::size_t g = 0; g < portable.t_values().size(); ++g) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(portable.t_values()[g]),
                std::bit_cast<std::uint64_t>(avx2.t_values()[g]))
          << "lane_words=" << lane_words << " group " << g;
    }
  }
}

}  // namespace
