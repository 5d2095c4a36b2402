#include <gtest/gtest.h>

#include "circuits/arith.hpp"
#include "circuits/random_logic.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::NetId;

TEST(Simulator, SingleGateTruthTables) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.mark_output(nl.add_cell(CellType::kAnd, {a, b}));
  nl.mark_output(nl.add_cell(CellType::kNand, {a, b}));
  nl.mark_output(nl.add_cell(CellType::kXor, {a, b}));
  sim::Simulator sim(nl);
  EXPECT_EQ(sim.eval_single({false, false}),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(sim.eval_single({true, false}),
            (std::vector<bool>{false, true, true}));
  EXPECT_EQ(sim.eval_single({true, true}),
            (std::vector<bool>{true, false, false}));
}

TEST(Simulator, ConstantsAndRand) {
  netlist::Netlist nl;
  (void)nl.add_input("a");
  const NetId c0 = nl.add_const(false);
  const NetId c1 = nl.add_const(true);
  const NetId r = nl.add_rand("r");
  nl.mark_output(c0);
  nl.mark_output(c1);
  nl.mark_output(r);
  sim::Simulator sim(nl, 123);
  sim.eval();
  EXPECT_EQ(sim.value(c0), 0u);
  EXPECT_EQ(sim.value(c1), ~0ULL);
  // Fresh randomness changes across evals (overwhelmingly likely).
  const std::uint64_t r1 = sim.value(r);
  sim.eval();
  EXPECT_NE(sim.value(r), r1);
}

TEST(Simulator, RandIsSeedDeterministic) {
  netlist::Netlist nl;
  const NetId r = nl.add_rand("r");
  nl.mark_output(r);
  sim::Simulator sim_a(nl, 9), sim_b(nl, 9), sim_c(nl, 10);
  sim_a.eval();
  sim_b.eval();
  sim_c.eval();
  EXPECT_EQ(sim_a.value(r), sim_b.value(r));
  EXPECT_NE(sim_a.value(r), sim_c.value(r));
}

TEST(Simulator, TogglesTrackValueChanges) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.add_cell(CellType::kNot, {a});
  nl.mark_output(y);
  sim::Simulator sim(nl);
  sim.set_input(0, 0);
  sim.eval();
  sim.set_input(0, ~0ULL);  // all lanes flip
  sim.eval();
  EXPECT_EQ(sim.toggles(nl.net(y).driver), ~0ULL);
  sim.set_input(0, ~0ULL);  // no change
  sim.eval();
  EXPECT_EQ(sim.toggles(nl.net(y).driver), 0u);
}

TEST(Simulator, LanesAreIndependent) {
  const auto nl = circuits::make_adder(8);
  sim::Simulator sim(nl);
  // lane 0: 3 + 5; lane 1: 100 + 27.
  for (std::size_t bit = 0; bit < 8; ++bit) {
    const std::uint64_t a_word = (((3ULL >> bit) & 1) << 0) |
                                 (((100ULL >> bit) & 1) << 1);
    const std::uint64_t b_word = (((5ULL >> bit) & 1) << 0) |
                                 (((27ULL >> bit) & 1) << 1);
    sim.set_input(bit, a_word);
    sim.set_input(8 + bit, b_word);
  }
  sim.eval();
  std::uint64_t lane0 = 0, lane1 = 0;
  for (std::size_t bit = 0; bit < 8; ++bit) {
    const std::uint64_t word = sim.value(nl.primary_outputs()[bit]);
    lane0 |= (word & 1ULL) << bit;
    lane1 |= ((word >> 1) & 1ULL) << bit;
  }
  EXPECT_EQ(lane0, 8u);
  EXPECT_EQ(lane1, 127u);
}

TEST(Simulator, DffHoldsState) {
  // q <= d; d = a. q must lag a by one latch.
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_net("q");
  nl.add_cell_driving(CellType::kDff, std::array{a}, q);
  nl.mark_output(q);
  sim::Simulator sim(nl);
  sim.set_input(0, ~0ULL);
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u);  // state not yet latched
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
}

TEST(Simulator, SequentialCounterCounts) {
  // 2-bit counter: q0 <= ~q0; q1 <= q1 ^ q0.
  netlist::Netlist nl;
  const NetId q0 = nl.add_net("q0");
  const NetId q1 = nl.add_net("q1");
  const NetId d0 = nl.add_cell(CellType::kNot, {q0});
  const NetId d1 = nl.add_cell(CellType::kXor, {q1, q0});
  nl.add_cell_driving(CellType::kDff, std::array{d0}, q0);
  nl.add_cell_driving(CellType::kDff, std::array{d1}, q1);
  nl.mark_output(q0);
  nl.mark_output(q1);
  sim::Simulator sim(nl);
  std::vector<unsigned> sequence;
  for (int cycle = 0; cycle < 6; ++cycle) {
    sim.eval();
    sequence.push_back(static_cast<unsigned>((sim.value(q0) & 1) |
                                             ((sim.value(q1) & 1) << 1)));
    sim.latch();
  }
  EXPECT_EQ(sequence, (std::vector<unsigned>{0, 1, 2, 3, 0, 1}));
}

TEST(Simulator, ResetClearsStateAndReseeds) {
  netlist::Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId nq = nl.add_cell(CellType::kNot, {q});
  nl.add_cell_driving(CellType::kDff, std::array{nq}, q);
  nl.mark_output(q);
  sim::Simulator sim(nl);
  sim.eval();
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
  sim.reset(1);
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u);
}

TEST(Simulator, InputValidation) {
  const auto nl = circuits::make_adder(4);
  sim::Simulator sim(nl);
  EXPECT_THROW(sim.eval_single({true}), std::invalid_argument);
}

TEST(Simulator, BroadcastMatchesLanewiseRandom) {
  // Property: full-word broadcast inputs produce identical values across
  // all 64 lanes for arbitrary circuits.
  circuits::RandomLogicConfig config;
  config.gates = 250;
  config.seed = 12;
  const auto nl = circuits::make_random_logic(config);
  sim::Simulator sim(nl);
  util::Xoshiro256 rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
      sim.set_input(i, (rng() & 1) != 0 ? ~0ULL : 0ULL);
    }
    sim.eval();
    for (const NetId out : nl.primary_outputs()) {
      const std::uint64_t word = sim.value(out);
      EXPECT_TRUE(word == 0 || word == ~0ULL);
    }
  }
}

}  // namespace
