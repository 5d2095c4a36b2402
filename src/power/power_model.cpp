#include "power/power_model.hpp"

namespace polaris::power {

using netlist::GateId;

PowerModel::PowerModel(const netlist::Netlist& netlist,
                       const techlib::TechLibrary& lib) {
  energies_.resize(netlist.gate_count());
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const auto& gate = netlist.gate(g);
    const std::size_t fanout = netlist.net(gate.output).fanouts.size();
    energies_[g] = lib.switch_energy(gate.type, gate.inputs.size()) +
                   kLoadEnergyPerFanoutFj * static_cast<double>(fanout);
    static_leakage_nw_ += lib.leakage(gate.type, gate.inputs.size());
    if (energies_[g] > 0.0) active_gates_.push_back(g);
  }
}

}  // namespace polaris::power
