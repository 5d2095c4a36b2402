// Reference gate-by-gate simulator: the pre-compiled-kernel interpreter,
// kept verbatim as the oracle the property tests (tests/test_compiled.cpp)
// compare the compiled kernel against.
//
// Semantics are identical to sim::Simulator by contract: same topological
// schedule source, same per-eval source refresh order (constants, kRand in
// ascending gate order, DFF state), same toggle definition (value XOR
// value-at-previous-eval, primary-input toggles read 0 after eval). It
// evaluates one gate at a time through the eval_cell_word switch and takes
// a full previous_ = values_ snapshot per cycle - slow, simple, and easy
// to audit, which is exactly what an oracle should be.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace polaris::sim {

class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const netlist::Netlist& netlist,
                              std::uint64_t seed = 0x51313ab1e5eedULL);

  [[nodiscard]] const netlist::Netlist& design() const { return netlist_; }

  void set_input(std::size_t pi_index, std::uint64_t word);
  void set_inputs_random();

  void eval();
  void latch();
  void reset(std::uint64_t seed);
  void reseed(std::uint64_t seed) { rng_ = util::Xoshiro256(seed); }

  [[nodiscard]] std::uint64_t value(netlist::NetId net) const {
    return values_[net];
  }
  [[nodiscard]] std::uint64_t toggles(netlist::GateId gate) const {
    const netlist::NetId out = netlist_.gate(gate).output;
    return values_[out] ^ previous_[out];
  }

  [[nodiscard]] std::vector<bool> eval_single(const std::vector<bool>& bits);

 private:
  struct Op {
    netlist::CellType type;
    std::uint32_t fan_in;
    std::uint32_t input_offset;  // into input_nets_
    netlist::NetId output;
    netlist::GateId gate;
  };

  const netlist::Netlist& netlist_;
  util::Xoshiro256 rng_;
  std::vector<Op> comb_schedule_;       // combinational gates, topo order
  std::vector<netlist::NetId> input_nets_;  // flattened operand lists
  std::vector<netlist::NetId> const0_nets_, const1_nets_, rand_nets_;
  std::vector<std::pair<netlist::NetId, netlist::NetId>> dff_q_d_;  // (q, d)
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> previous_;
  std::vector<std::uint64_t> dff_state_;
};

}  // namespace polaris::sim
