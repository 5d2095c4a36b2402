#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace polaris::netlist {
namespace {

void check_arity(CellType type, std::size_t fan_in) {
  const Arity arity = arity_of(type);
  if (fan_in < arity.min || (arity.max != 0 && fan_in > arity.max)) {
    throw std::invalid_argument("cell " + std::string(to_string(type)) +
                                ": invalid fan-in " + std::to_string(fan_in));
  }
}

}  // namespace

NetId Netlist::add_net(std::string name) {
  const NetId id = static_cast<NetId>(nets_.size());
  Net net;
  net.name = name.empty() ? util::numbered("n", id) : std::move(name);
  nets_.push_back(std::move(net));
  return id;
}

NetId Netlist::add_cell(CellType type, std::span<const NetId> inputs,
                        std::string net_name) {
  const NetId out = add_net(std::move(net_name));
  add_cell_driving(type, inputs, out);
  return out;
}

NetId Netlist::add_cell(CellType type, std::initializer_list<NetId> inputs,
                        std::string net_name) {
  return add_cell(type, std::span<const NetId>(inputs.begin(), inputs.size()),
                  std::move(net_name));
}

GateId Netlist::add_cell_driving(CellType type, std::span<const NetId> inputs,
                                 NetId output) {
  check_arity(type, inputs.size());
  if (output >= nets_.size()) {
    throw std::invalid_argument("add_cell_driving: output net out of range");
  }
  if (nets_[output].driver != kNoGate) {
    throw std::invalid_argument("add_cell_driving: net '" + nets_[output].name +
                                "' already driven");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  Gate gate;
  gate.type = type;
  gate.inputs.assign(inputs.begin(), inputs.end());
  gate.output = output;
  gate.group = id;
  for (const NetId in : gate.inputs) {
    if (in >= nets_.size()) {
      throw std::invalid_argument("add_cell_driving: input net out of range");
    }
    nets_[in].fanouts.push_back(id);
  }
  nets_[output].driver = id;
  gates_.push_back(std::move(gate));
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId net = add_cell(CellType::kInput, {}, std::move(name));
  primary_inputs_.push_back(net);
  return net;
}

NetId Netlist::add_rand(std::string name) {
  return add_cell(CellType::kRand, {}, std::move(name));
}

NetId Netlist::add_const(bool value) {
  return add_cell(value ? CellType::kConst1 : CellType::kConst0, {});
}

void Netlist::mark_input(NetId net) {
  if (net >= nets_.size() || nets_[net].driver == kNoGate ||
      gates_[nets_[net].driver].type != CellType::kInput) {
    throw std::invalid_argument("mark_input: net is not driven by an input cell");
  }
  primary_inputs_.push_back(net);
}

void Netlist::mark_output(NetId net, std::string name) {
  if (net >= nets_.size()) {
    throw std::invalid_argument("mark_output: net out of range");
  }
  if (!name.empty()) nets_[net].name = std::move(name);
  primary_outputs_.push_back(net);
}

std::size_t Netlist::combinational_gate_count() const {
  std::size_t count = 0;
  for (const Gate& gate : gates_) {
    if (is_combinational(gate.type)) ++count;
  }
  return count;
}

void Netlist::validate() const {
  for (NetId n = 0; n < nets_.size(); ++n) {
    if (nets_[n].driver == kNoGate) {
      throw std::runtime_error("net '" + nets_[n].name + "' has no driver");
    }
    if (nets_[n].driver >= gates_.size()) {
      throw std::runtime_error("net '" + nets_[n].name + "' driver out of range");
    }
    if (gates_[nets_[n].driver].output != n) {
      throw std::runtime_error("net '" + nets_[n].name +
                               "' driver does not drive it back");
    }
  }
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    check_arity(gate.type, gate.inputs.size());
    if (gate.output >= nets_.size()) {
      throw std::runtime_error("gate " + std::to_string(g) + " output out of range");
    }
    for (const NetId in : gate.inputs) {
      if (in >= nets_.size()) {
        throw std::runtime_error("gate " + std::to_string(g) + " input out of range");
      }
    }
  }
  (void)topological_order();  // throws on combinational cycles
}

std::vector<GateId> Netlist::topological_order() const {
  // Kahn's algorithm over combinational dependencies. A combinational gate
  // depends on the drivers of its input nets unless that driver is a source
  // or a DFF (whose q value is state, available at cycle start).
  const std::size_t n = gates_.size();
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<GateId> order;
  order.reserve(n);

  std::vector<GateId> ready;
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = gates_[g];
    if (!is_combinational(gate.type)) continue;
    std::uint32_t deps = 0;
    for (const NetId in : gate.inputs) {
      const Gate& driver = gates_[nets_[in].driver];
      if (is_combinational(driver.type)) ++deps;
    }
    pending[g] = deps;
  }

  // Sources first (stable order by id), so the simulator can fill them in
  // one linear sweep.
  for (GateId g = 0; g < n; ++g) {
    if (is_source(gates_[g].type)) order.push_back(g);
  }
  for (GateId g = 0; g < n; ++g) {
    if (is_combinational(gates_[g].type) && pending[g] == 0) ready.push_back(g);
  }

  std::size_t comb_emitted = 0;
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    ++comb_emitted;
    for (const GateId reader : nets_[gates_[g].output].fanouts) {
      if (!is_combinational(gates_[reader].type)) continue;
      if (--pending[reader] == 0) ready.push_back(reader);
    }
  }

  std::size_t comb_total = 0;
  for (const Gate& gate : gates_) {
    if (is_combinational(gate.type)) ++comb_total;
  }
  if (comb_emitted != comb_total) {
    throw std::runtime_error("netlist '" + name_ + "': combinational cycle");
  }

  for (GateId g = 0; g < n; ++g) {
    if (gates_[g].type == CellType::kDff) order.push_back(g);
  }
  return order;
}

std::vector<std::uint32_t> Netlist::levels() const {
  std::vector<std::uint32_t> level(gates_.size(), 0);
  for (const GateId g : topological_order()) {
    const Gate& gate = gates_[g];
    if (!is_combinational(gate.type)) continue;
    std::uint32_t max_in = 0;
    for (const NetId in : gate.inputs) {
      const GateId driver = nets_[in].driver;
      if (is_combinational(gates_[driver].type)) {
        max_in = std::max(max_in, level[driver]);
      }
    }
    level[g] = max_in + 1;
  }
  return level;
}

}  // namespace polaris::netlist
