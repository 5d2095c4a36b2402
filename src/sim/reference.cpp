#include "sim/reference.hpp"

#include <algorithm>
#include <stdexcept>

namespace polaris::sim {

using netlist::CellType;
using netlist::GateId;
using netlist::NetId;

ReferenceSimulator::ReferenceSimulator(const netlist::Netlist& netlist,
                                       std::uint64_t seed)
    : netlist_(netlist), rng_(seed) {
  const auto order = netlist.topological_order();  // validates acyclicity
  for (const GateId g : order) {
    const auto& gate = netlist.gate(g);
    switch (gate.type) {
      case CellType::kInput:
        break;  // written by set_input*
      case CellType::kConst0:
        const0_nets_.push_back(gate.output);
        break;
      case CellType::kConst1:
        const1_nets_.push_back(gate.output);
        break;
      case CellType::kRand:
        rand_nets_.push_back(gate.output);
        break;
      case CellType::kDff:
        dff_q_d_.emplace_back(gate.output, gate.inputs[0]);
        break;
      default: {
        Op op;
        op.type = gate.type;
        op.fan_in = static_cast<std::uint32_t>(gate.inputs.size());
        op.input_offset = static_cast<std::uint32_t>(input_nets_.size());
        op.output = gate.output;
        op.gate = g;
        input_nets_.insert(input_nets_.end(), gate.inputs.begin(),
                           gate.inputs.end());
        comb_schedule_.push_back(op);
        break;
      }
    }
  }
  values_.assign(netlist.net_count(), 0);
  previous_.assign(netlist.net_count(), 0);
  dff_state_.assign(dff_q_d_.size(), 0);
}

void ReferenceSimulator::set_input(std::size_t pi_index, std::uint64_t word) {
  values_[netlist_.primary_inputs().at(pi_index)] = word;
}

void ReferenceSimulator::set_inputs_random() {
  for (const NetId net : netlist_.primary_inputs()) values_[net] = rng_();
}

void ReferenceSimulator::eval() {
  // Snapshot for toggle computation. The snapshot is taken before sources
  // are refreshed so kRand/DFF/const toggles are visible to the power model;
  // primary inputs were staged into values_ already, so their own toggles
  // read as zero.
  previous_ = values_;

  for (const NetId net : const0_nets_) values_[net] = 0;
  for (const NetId net : const1_nets_) values_[net] = ~0ULL;
  for (const NetId net : rand_nets_) values_[net] = rng_();
  for (std::size_t i = 0; i < dff_q_d_.size(); ++i) {
    values_[dff_q_d_[i].first] = dff_state_[i];
  }

  std::vector<std::uint64_t> operands;
  for (const Op& op : comb_schedule_) {
    const NetId* in = &input_nets_[op.input_offset];
    operands.assign(op.fan_in, 0);
    for (std::uint32_t i = 0; i < op.fan_in; ++i) operands[i] = values_[in[i]];
    values_[op.output] =
        netlist::eval_cell_word(op.type, {operands.data(), op.fan_in});
  }
}

void ReferenceSimulator::latch() {
  for (std::size_t i = 0; i < dff_q_d_.size(); ++i) {
    dff_state_[i] = values_[dff_q_d_[i].second];
  }
}

void ReferenceSimulator::reset(std::uint64_t seed) {
  rng_ = util::Xoshiro256(seed);
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(previous_.begin(), previous_.end(), 0);
  std::fill(dff_state_.begin(), dff_state_.end(), 0);
}

std::vector<bool> ReferenceSimulator::eval_single(
    const std::vector<bool>& bits) {
  const auto& inputs = netlist_.primary_inputs();
  if (bits.size() != inputs.size()) {
    throw std::invalid_argument("eval_single: input size mismatch");
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values_[inputs[i]] = bits[i] ? ~0ULL : 0ULL;  // broadcast, lane 0 read back
  }
  eval();
  std::vector<bool> out;
  out.reserve(netlist_.primary_outputs().size());
  for (const NetId net : netlist_.primary_outputs()) {
    out.push_back((values_[net] & 1ULL) != 0);
  }
  return out;
}

}  // namespace polaris::sim
