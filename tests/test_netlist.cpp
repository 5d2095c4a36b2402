#include <gtest/gtest.h>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"

namespace {

using namespace polaris::netlist;

TEST(CellType, RoundTripNames) {
  for (std::size_t t = 0; t < kCellTypeCount; ++t) {
    const auto type = static_cast<CellType>(t);
    EXPECT_EQ(cell_type_from_string(to_string(type)), type);
  }
}

TEST(CellType, VerilogAliases) {
  EXPECT_EQ(cell_type_from_string("INV"), CellType::kNot);
  EXPECT_EQ(cell_type_from_string("buff"), CellType::kBuf);
  EXPECT_EQ(cell_type_from_string("NAND"), CellType::kNand);
  EXPECT_THROW((void)cell_type_from_string("frobnicate"),
               std::invalid_argument);
}

TEST(CellType, Predicates) {
  EXPECT_TRUE(is_source(CellType::kInput));
  EXPECT_TRUE(is_source(CellType::kRand));
  EXPECT_FALSE(is_source(CellType::kNand));
  EXPECT_TRUE(is_combinational(CellType::kMux));
  EXPECT_FALSE(is_combinational(CellType::kDff));
  EXPECT_TRUE(is_maskable(CellType::kXor));
  EXPECT_FALSE(is_maskable(CellType::kNot));
  EXPECT_FALSE(is_maskable(CellType::kDff));
}

TEST(EvalCell, TruthTablesBinary) {
  const bool f = false, t = true;
  const bool vals[2] = {f, t};
  for (const bool a : vals) {
    for (const bool b : vals) {
      const bool in[2] = {a, b};
      EXPECT_EQ(eval_cell(CellType::kAnd, in), a && b);
      EXPECT_EQ(eval_cell(CellType::kOr, in), a || b);
      EXPECT_EQ(eval_cell(CellType::kNand, in), !(a && b));
      EXPECT_EQ(eval_cell(CellType::kNor, in), !(a || b));
      EXPECT_EQ(eval_cell(CellType::kXor, in), a != b);
      EXPECT_EQ(eval_cell(CellType::kXnor, in), a == b);
    }
  }
}

TEST(EvalCell, MuxAndUnary) {
  // mux inputs: {sel, a, b} -> sel ? b : a
  for (int sel = 0; sel < 2; ++sel) {
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const bool in[3] = {sel != 0, a != 0, b != 0};
        EXPECT_EQ(eval_cell(CellType::kMux, in), sel != 0 ? b != 0 : a != 0);
      }
    }
  }
  const bool one[1] = {true};
  EXPECT_FALSE(eval_cell(CellType::kNot, one));
  EXPECT_TRUE(eval_cell(CellType::kBuf, one));
}

TEST(EvalCell, NaryGates) {
  const bool in3[3] = {true, true, false};
  EXPECT_FALSE(eval_cell(CellType::kAnd, in3));
  EXPECT_TRUE(eval_cell(CellType::kNand, in3));
  EXPECT_TRUE(eval_cell(CellType::kOr, in3));
  EXPECT_FALSE(eval_cell(CellType::kXor, in3));  // two ones
  const bool in4[4] = {true, true, true, false};
  EXPECT_TRUE(eval_cell(CellType::kXor, in4));  // three ones
}

TEST(EvalCellWord, MatchesScalarLanewise) {
  // Lane-0 semantics agree with eval_cell for every type and input combo.
  for (const CellType type : {CellType::kAnd, CellType::kOr, CellType::kNand,
                              CellType::kNor, CellType::kXor, CellType::kXnor}) {
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const bool sin[2] = {a != 0, b != 0};
        const std::uint64_t win[2] = {a != 0 ? ~0ULL : 0, b != 0 ? ~0ULL : 0};
        EXPECT_EQ((eval_cell_word(type, win) & 1ULL) != 0, eval_cell(type, sin))
            << to_string(type) << " " << a << b;
      }
    }
  }
}

TEST(Netlist, BuildAndQuery) {
  Netlist nl("t");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_cell(CellType::kNand, {a, b}, "y");
  nl.mark_output(y);
  EXPECT_EQ(nl.gate_count(), 3u);  // 2 inputs + 1 nand
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.net(y).driver, 2u);
  EXPECT_EQ(nl.net(a).fanouts.size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, RejectsDoubleDriver) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW(nl.add_cell_driving(CellType::kBuf, std::array{a}, a),
               std::invalid_argument);
}

TEST(Netlist, RejectsBadArity) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW((void)nl.add_cell(CellType::kAnd, {a}), std::invalid_argument);
  EXPECT_THROW((void)nl.add_cell(CellType::kNot, {a, a}), std::invalid_argument);
  EXPECT_THROW((void)nl.add_cell(CellType::kMux, {a, a}), std::invalid_argument);
}

TEST(Netlist, ValidateCatchesUndrivenNet) {
  Netlist nl;
  (void)nl.add_net("floating");
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Netlist, DetectsCombinationalCycle) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId loop = nl.add_net("loop");
  // gate reads its own output net -> cycle
  nl.add_cell_driving(CellType::kAnd, std::array{a, loop}, loop);
  EXPECT_THROW((void)nl.topological_order(), std::runtime_error);
}

TEST(Netlist, DffBreaksCycle) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_cell(CellType::kXor, {a, q}, "d");
  nl.add_cell_driving(CellType::kDff, std::array{d}, q);
  EXPECT_NO_THROW(nl.validate());
  const auto order = nl.topological_order();
  EXPECT_EQ(order.size(), nl.gate_count());
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellType::kAnd, {a, b});
  const NetId y = nl.add_cell(CellType::kOr, {x, a});
  nl.mark_output(y);
  const auto order = nl.topological_order();
  std::vector<std::size_t> pos(nl.gate_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[nl.net(x).driver], pos[nl.net(y).driver]);
}

TEST(Netlist, LevelsIncreaseAlongChains) {
  Netlist nl;
  NetId n = nl.add_input("a");
  std::vector<NetId> chain{n};
  for (int i = 0; i < 5; ++i) {
    n = nl.add_cell(CellType::kNot, {n});
    chain.push_back(n);
  }
  const auto levels = nl.levels();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(levels[nl.net(chain[i]).driver], i);
  }
}

TEST(Netlist, MarkInputValidates) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.add_cell(CellType::kNot, {a});
  EXPECT_THROW(nl.mark_input(y), std::invalid_argument);
}

TEST(Stats, CountsAndDepth) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.add_cell(CellType::kNand, {a, b});
  const NetId y = nl.add_cell(CellType::kNot, {x});
  nl.mark_output(y);
  const auto stats = compute_stats(nl);
  EXPECT_EQ(stats.gates, 4u);
  EXPECT_EQ(stats.combinational, 2u);
  EXPECT_EQ(stats.inputs, 2u);
  EXPECT_EQ(stats.outputs, 1u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.type_histogram[static_cast<std::size_t>(CellType::kNand)], 1u);
  EXPECT_FALSE(to_string(stats).empty());
}

}  // namespace
