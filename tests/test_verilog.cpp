#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "circuits/arith.hpp"
#include "circuits/random_logic.hpp"
#include "netlist/verilog.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace polaris::netlist;

TEST(Verilog, EmitsModuleHeaderAndInstances) {
  Netlist nl("demo");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.mark_output(nl.add_cell(CellType::kNand, {a, b}, "y"));
  const std::string v = to_verilog(nl);
  EXPECT_NE(v.find("module demo"), std::string::npos);
  EXPECT_NE(v.find("input a"), std::string::npos);
  EXPECT_NE(v.find("output y"), std::string::npos);
  EXPECT_NE(v.find("nand"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, ParsesHandWrittenModule) {
  const std::string src = R"(
    // half adder
    module ha (a, b, s, c);
      input a, b;
      output s, c;
      xor g1 (s, a, b);
      and g2 (c, a, b);
    endmodule
  )";
  const Netlist nl = from_verilog(src);
  EXPECT_EQ(nl.name(), "ha");
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 2u);
  polaris::sim::Simulator sim(nl);
  EXPECT_EQ(sim.eval_single({true, true}), (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.eval_single({true, false}), (std::vector<bool>{true, false}));
}

TEST(Verilog, ParsesAssignConstantsAndAliases) {
  const std::string src = R"(
    module m (a, y0, y1, y2);
      input a; output y0, y1, y2; wire t;
      assign t = 1'b1;
      and g (y0, a, t);
      assign y1 = 1'b0;
      assign y2 = a;
    endmodule
  )";
  const Netlist nl = from_verilog(src);
  polaris::sim::Simulator sim(nl);
  EXPECT_EQ(sim.eval_single({true}), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(sim.eval_single({false}), (std::vector<bool>{false, false, false}));
}

TEST(Verilog, ParsesBlockComments) {
  const std::string src =
      "module m (a, y); /* block\ncomment */ input a; output y;\n"
      "buf g (y, a);\nendmodule";
  EXPECT_NO_THROW((void)from_verilog(src));
}

TEST(Verilog, RejectsMalformedInput) {
  EXPECT_THROW((void)from_verilog("nand g (y, a, b);"), std::runtime_error);
  EXPECT_THROW((void)from_verilog("module m (a); input a; frob g (a);"),
               std::runtime_error);
  EXPECT_THROW((void)from_verilog("module m (y); output y; endmodule"),
               std::runtime_error);  // y undriven
  EXPECT_THROW(
      (void)from_verilog("module m (a, y); input a; output y; not g (y);"),
      std::runtime_error);  // arity
}

TEST(Verilog, RejectsDuplicateDriver) {
  const std::string src = R"(
    module m (a, y);
      input a; output y;
      buf g1 (y, a);
      buf g2 (y, a);
    endmodule
  )";
  EXPECT_THROW((void)from_verilog(src), std::runtime_error);
}

TEST(Verilog, RoundTripPreservesFunction) {
  // multiplier -> verilog -> parse -> same outputs on random vectors.
  const Netlist original = polaris::circuits::make_multiplier(6);
  const Netlist reparsed = from_verilog(to_verilog(original));
  ASSERT_EQ(reparsed.primary_inputs().size(), original.primary_inputs().size());
  ASSERT_EQ(reparsed.primary_outputs().size(),
            original.primary_outputs().size());
  polaris::sim::Simulator sim_a(original), sim_b(reparsed);
  polaris::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> in(original.primary_inputs().size());
    for (auto&& bit : in) bit = (rng() & 1) != 0;
    EXPECT_EQ(sim_a.eval_single(in), sim_b.eval_single(in));
  }
}

TEST(Verilog, RoundTripRandomLogic) {
  polaris::circuits::RandomLogicConfig config;
  config.gates = 150;
  config.seed = 5;
  const Netlist original = polaris::circuits::make_random_logic(config);
  const Netlist reparsed = from_verilog(to_verilog(original));
  polaris::sim::Simulator sim_a(original), sim_b(reparsed);
  polaris::util::Xoshiro256 rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> in(original.primary_inputs().size());
    for (auto&& bit : in) bit = (rng() & 1) != 0;
    EXPECT_EQ(sim_a.eval_single(in), sim_b.eval_single(in));
  }
}

TEST(Verilog, DedupSuffixSkipsNamesAlreadyTaken) {
  // Nets named a, a_1, a: the second `a` must not take the suffixed name
  // the real net a_1 already holds, or the mux would read the wrong net
  // and the text would not parse.
  Netlist nl("dup");
  const NetId a = nl.add_input("a");
  const NetId a1 = nl.add_input("a_1");
  const NetId a2 = nl.add_input("a");
  nl.mark_output(nl.add_cell(CellType::kMux, {a, a1, a2}, "y"));
  const Netlist back = from_verilog(to_verilog(nl));
  ASSERT_EQ(back.gate_count(), nl.gate_count());
  ASSERT_EQ(back.primary_inputs().size(), nl.primary_inputs().size());
  for (GateId g = 0; g < nl.gate_count(); ++g) {
    const Gate& want = nl.gate(g);
    const Gate& got = back.gate(g);
    ASSERT_EQ(got.type, want.type) << "gate " << g;
    ASSERT_EQ(got.inputs.size(), want.inputs.size()) << "gate " << g;
    for (std::size_t i = 0; i < want.inputs.size(); ++i) {
      EXPECT_EQ(back.net(got.inputs[i]).driver, nl.net(want.inputs[i]).driver)
          << "gate " << g << " input " << i << " reads the wrong net";
    }
  }
}

/// Removes a file when the scope ends, on every exit path.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

TEST(Verilog, FileRoundTrip) {
  const Netlist nl = polaris::circuits::make_adder(4);
  const std::string path = testing::TempDir() + "/polaris_adder4_" +
                           std::to_string(::getpid()) + ".v";
  const RemoveOnExit cleanup{path};
  write_verilog_file(nl, path);
  const Netlist back = read_verilog_file(path);
  EXPECT_EQ(back.primary_outputs().size(), nl.primary_outputs().size());
  EXPECT_THROW((void)read_verilog_file("/no/such/file.v"), std::runtime_error);
}

}  // namespace
