#include "netlist/netlist_io.hpp"

#include <stdexcept>
#include <string>

namespace polaris::netlist {

namespace {
constexpr char kTag[] = "NETL";
}  // namespace

// A writer and a reader rather than one field list: the reader rebuilds
// the netlist through its validating construction API. Minimum entry
// sizes: a net is a length-prefixed name (8 bytes), a gate at least 17
// bytes, a port id exactly 4.

void write_netlist(serialize::Writer& out, const Netlist& netlist) {
  out.begin_chunk(kTag);
  out.str(netlist.name());
  out.seq(netlist.nets(), 8, [&](const Net& net) { out.str(net.name); });
  out.seq(netlist.gates(), 17, [&](const Gate& gate) {
    out.u8(static_cast<std::uint8_t>(gate.type));
    out.seq(gate.inputs, 4, [&](NetId input) { out.u32(input); });
    out.u32(gate.output);
    out.u32(gate.group);
  });
  out.seq(netlist.primary_inputs(), 4, [&](NetId net) { out.u32(net); });
  out.seq(netlist.primary_outputs(), 4, [&](NetId net) { out.u32(net); });
  out.end_chunk();
}

Netlist read_netlist(serialize::Reader& in) {
  in.enter_chunk(kTag);
  Netlist netlist(in.str());
  in.seq(8, [&] { (void)netlist.add_net(in.str()); });
  std::vector<NetId> inputs;
  GateId next = 0;
  in.seq(17, [&] {
    const std::uint8_t raw_type = in.u8();
    if (raw_type >= kCellTypeCount) {
      throw std::runtime_error("polaris netlist: unknown cell type " +
                               std::to_string(raw_type));
    }
    in.seq(inputs, 4, [&](NetId& input) { in.u32(input); });
    const NetId output = in.u32();
    const GateId group = in.u32();
    // add_cell_driving re-checks arity, net ranges, and single-driver-ship,
    // and appends at exactly the next GateId (the ascending-id invariant).
    const GateId id = netlist.add_cell_driving(
        static_cast<CellType>(raw_type), inputs, output);
    if (id != next++) {
      throw std::runtime_error("polaris netlist: gate id drift on decode");
    }
    netlist.gate(id).group = group;
  });
  for (const Gate& gate : netlist.gates()) {
    if (gate.group != kNoGate && gate.group >= netlist.gate_count()) {
      throw std::runtime_error("polaris netlist: gate group out of range");
    }
  }
  in.seq(4, [&] { netlist.mark_input(in.u32()); });
  // Empty rename: the serialized net names already carry the port names.
  in.seq(4, [&] { netlist.mark_output(in.u32()); });
  in.exit_chunk();
  netlist.validate();
  return netlist;
}

}  // namespace polaris::netlist
