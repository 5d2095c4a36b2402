#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/random_logic.hpp"
#include "graph/features.hpp"

namespace {

using namespace polaris;
using netlist::CellType;
using netlist::NetId;

TEST(FeatureSpec, DimensionsAddUp) {
  const graph::FeatureSpec spec{7};
  EXPECT_EQ(spec.node_slots(), 8u);
  EXPECT_EQ(spec.type_dims(), 8 * netlist::kCellTypeCount);
  EXPECT_EQ(spec.adjacency_dims(), 28u);
  EXPECT_EQ(spec.dim(), spec.type_dims() + 28 + 3);
  EXPECT_EQ(spec.feature_names().size(), spec.dim());
}

TEST(FeatureSpec, NamesMatchPaperVocabulary) {
  const graph::FeatureSpec spec{7};
  const auto names = spec.feature_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "G4=nand"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "adj(G0,G1)"), names.end());
  EXPECT_EQ(names.back(), "level");
}

TEST(FeatureExtractor, SelfTypeOneHot) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_cell(CellType::kNand, {a, b});
  nl.mark_output(y);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{3});
  const auto features = fx.extract(nl.net(y).driver);
  // slot 0 one-hot: exactly one bit set, at kNand's index.
  double sum = 0.0;
  for (std::size_t t = 0; t < netlist::kCellTypeCount; ++t) sum += features[t];
  EXPECT_EQ(sum, 1.0);
  EXPECT_EQ(features[static_cast<std::size_t>(CellType::kNand)], 1.0);
}

TEST(FeatureExtractor, NeighborTypesEncoded) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId x = nl.add_cell(CellType::kNot, {a});
  const NetId y = nl.add_cell(CellType::kXor, {a, x});
  nl.mark_output(y);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{3});
  const auto features = fx.extract(nl.net(y).driver);
  // Neighbors of XOR: input driver + NOT. Slots 1..2 should contain one
  // kInput and one kNot one-hot (BFS order: sorted by gate id).
  const std::size_t slot1 = netlist::kCellTypeCount;
  const std::size_t input_idx = static_cast<std::size_t>(CellType::kInput);
  const std::size_t not_idx = static_cast<std::size_t>(CellType::kNot);
  EXPECT_EQ(features[slot1 + input_idx], 1.0);  // gate 0 (input) first
  EXPECT_EQ(features[2 * netlist::kCellTypeCount + not_idx], 1.0);
}

TEST(FeatureExtractor, EmptySlotsStayZero) {
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_cell(CellType::kNot, {a}));
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{7});
  const auto features = fx.extract(1);  // the NOT; only 1 neighbor exists
  for (std::size_t slot = 2; slot < 8; ++slot) {
    for (std::size_t t = 0; t < netlist::kCellTypeCount; ++t) {
      EXPECT_EQ(features[slot * netlist::kCellTypeCount + t], 0.0);
    }
  }
}

TEST(FeatureExtractor, AdjacencyBitsReflectEdges) {
  // a -> NOT -> NOT2; G0=NOT2: neighbors = [NOT]; G0-G1 adjacent.
  netlist::Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId x = nl.add_cell(CellType::kNot, {a});
  const NetId y = nl.add_cell(CellType::kNot, {x});
  nl.mark_output(y);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{2});
  const graph::FeatureSpec spec{2};
  const auto features = fx.extract(nl.net(y).driver);
  const std::size_t adj_base = spec.type_dims();
  EXPECT_EQ(features[adj_base + 0], 1.0);  // adj(G0,G1)
}

TEST(FeatureExtractor, ScalarsNormalized) {
  circuits::RandomLogicConfig config;
  config.gates = 300;
  config.seed = 17;
  const auto nl = circuits::make_random_logic(config);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{7});
  const graph::FeatureSpec spec{7};
  for (netlist::GateId g = 0; g < nl.gate_count(); g += 13) {
    const auto features = fx.extract(g);
    ASSERT_EQ(features.size(), spec.dim());
    for (std::size_t k = spec.dim() - 3; k < spec.dim(); ++k) {
      EXPECT_GE(features[k], 0.0);
      EXPECT_LE(features[k], 1.0);
    }
  }
}

TEST(FeatureExtractor, OwnAndCallerScratchAgree) {
  circuits::RandomLogicConfig config;
  config.gates = 150;
  config.seed = 29;
  const auto nl = circuits::make_random_logic(config);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{5});
  graph::FeatureExtractor::Scratch scratch;
  std::vector<double> row(fx.spec().dim());
  for (const netlist::GateId gate : {3u, 40u, 80u, 120u}) {
    fx.extract(gate, row, scratch);
    EXPECT_EQ(row, fx.extract(gate)) << "gate " << gate;
  }
}

class LocalitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LocalitySweep, DimMatchesExtractedSize) {
  const std::size_t locality = GetParam();
  circuits::RandomLogicConfig config;
  config.gates = 80;
  config.seed = 31;
  const auto nl = circuits::make_random_logic(config);
  graph::FeatureExtractor fx(nl, graph::FeatureSpec{locality});
  EXPECT_EQ(fx.extract(10).size(), graph::FeatureSpec{locality}.dim());
}

INSTANTIATE_TEST_SUITE_P(Localities, LocalitySweep,
                         ::testing::Values(1, 3, 5, 7, 9, 12));

}  // namespace
