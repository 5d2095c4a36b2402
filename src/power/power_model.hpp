// Hamming-distance (toggle-count) dynamic power model.
//
// Per cycle, a gate that toggles its output dissipates its switching energy
// E_g = E_cell(type, fan-in) + E_load * fanout. This is the standard
// zero-delay pre-silicon power proxy targeted by first-order DPA and by
// simulation-based TVLA flows (which is what the paper itself uses).
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "techlib/techlib.hpp"

namespace polaris::power {

class PowerModel {
 public:
  PowerModel(const netlist::Netlist& netlist, const techlib::TechLibrary& lib);

  /// Switching energy (fJ) charged when gate g toggles.
  [[nodiscard]] double gate_energy(netlist::GateId gate) const {
    return energies_[gate];
  }

  /// Gates with nonzero switching energy, ascending id - the set whose
  /// toggles contribute to power traces. Campaign shard loops iterate this
  /// instead of re-scanning all gates, fusing group-energy accumulation
  /// with toggle readout.
  [[nodiscard]] const std::vector<netlist::GateId>& active_gates() const {
    return active_gates_;
  }

  /// Static leakage power (nW) of the whole design (activity-independent).
  [[nodiscard]] double static_leakage() const { return static_leakage_nw_; }

 private:
  std::vector<double> energies_;
  std::vector<netlist::GateId> active_gates_;
  double static_leakage_nw_ = 0.0;
};

/// Per-fanout load energy (fJ) added on top of the cell switching energy.
inline constexpr double kLoadEnergyPerFanoutFj = 0.12;

}  // namespace polaris::power
