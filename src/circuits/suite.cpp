#include "circuits/suite.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/cordic.hpp"
#include "circuits/des.hpp"
#include "circuits/log2.hpp"
#include "circuits/md5.hpp"
#include "circuits/memctrl.hpp"
#include "circuits/misc.hpp"
#include "circuits/random_logic.hpp"
#include "netlist/verilog.hpp"
#include "util/fileio.hpp"

namespace polaris::circuits {
namespace {

std::vector<InputRole> uniform_roles(const netlist::Netlist& nl, InputRole role) {
  return std::vector<InputRole>(nl.primary_inputs().size(), role);
}

/// First `head` inputs get `head_role`, the rest `tail_role` (inputs were
/// declared in a known order by each generator).
std::vector<InputRole> split_roles(const netlist::Netlist& nl, std::size_t head,
                                   InputRole head_role, InputRole tail_role) {
  std::vector<InputRole> roles(nl.primary_inputs().size(), tail_role);
  for (std::size_t i = 0; i < std::min(head, roles.size()); ++i) {
    roles[i] = head_role;
  }
  return roles;
}

std::size_t scaled(std::size_t value, double scale, std::size_t minimum) {
  const auto s = static_cast<std::size_t>(static_cast<double>(value) * scale);
  return std::max(minimum, s);
}

Design build_eval(const std::string& name, double scale) {
  using netlist::Netlist;
  if (name == "des3") {
    Netlist nl = scale >= 1.0 ? make_des3() : make_des(4);
    auto roles = split_roles(nl, 64, InputRole::kData, InputRole::kKey);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "arbiter") {
    Netlist nl = make_arbiter(std::bit_floor(scaled(64, scale, 8)));
    // Requests are the sensitive payload; the pointer is control.
    const std::size_t req = nl.primary_inputs().size() -
                            static_cast<std::size_t>(
                                std::bit_width(nl.primary_inputs().size()));
    auto roles = split_roles(nl, req, InputRole::kData, InputRole::kControl);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "sin") {
    Netlist nl = make_sin(scaled(16, scale, 8));
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "md5") {
    Netlist nl = scale >= 1.0 ? make_md5() : make_md5(8);
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "voter") {
    Netlist nl = make_voter(scaled(63, scale, 7) | 1);
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "square") {
    Netlist nl = make_square(scaled(16, scale, 6));
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "sqrt") {
    Netlist nl = make_sqrt(scaled(32, scale, 4) & ~std::size_t{1});
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "div") {
    Netlist nl = make_divider(scaled(16, scale, 6));
    auto roles = split_roles(nl, nl.primary_inputs().size() / 2,
                             InputRole::kData, InputRole::kKey);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "memctrl") {
    const std::size_t addr_w = scaled(12, scale, 4);
    const std::size_t data_w = scaled(16, scale, 8);
    Netlist nl = make_memctrl(addr_w, data_w);
    // Inputs in declaration order: req_valid, req_rw, req_row, req_col,
    // wdata, wmask. The write data is the sensitive payload.
    std::vector<InputRole> roles(nl.primary_inputs().size(), InputRole::kControl);
    for (std::size_t i = 2 + 2 * addr_w; i < 2 + 2 * addr_w + data_w; ++i) {
      roles[i] = InputRole::kData;
    }
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "multiplier") {
    Netlist nl = make_multiplier(scaled(16, scale, 6));
    auto roles = split_roles(nl, nl.primary_inputs().size() / 2,
                             InputRole::kData, InputRole::kKey);
    return {name, std::move(nl), std::move(roles)};
  }
  if (name == "log2") {
    Netlist nl = make_log2(scale >= 1.0 ? 32 : 16, scale >= 1.0 ? 16 : 8);
    auto roles = uniform_roles(nl, InputRole::kData);
    return {name, std::move(nl), std::move(roles)};
  }
  throw std::invalid_argument("unknown evaluation design: " + name);
}

}  // namespace

std::vector<std::string> evaluation_names() {
  return {"des3",  "arbiter", "sin",     "md5",        "voter", "square",
          "sqrt",  "div",     "memctrl", "multiplier", "log2"};
}

std::vector<Design> evaluation_suite(double scale) {
  std::vector<Design> designs;
  for (const auto& name : evaluation_names()) {
    designs.push_back(build_eval(name, scale));
  }
  return designs;
}

std::vector<Design> training_suite() {
  std::vector<Design> designs;
  // Six small designs (Sec. V-A): two random-logic circuits spanning
  // ISCAS-85-like sizes, an S-box layer (wide-fan-in SOP structure, like
  // the PLA-style ISCAS circuits), and two arithmetic blocks - chosen so
  // the structural-feature distribution covers what the evaluation suite
  // exhibits (see DESIGN.md on transfer).
  const struct {
    std::size_t gates;
    std::size_t inputs;
    std::uint64_t seed;
  } random_specs[] = {{280, 24, 11}, {520, 36, 23}};
  int index = 1;
  for (const auto& spec : random_specs) {
    RandomLogicConfig config;
    config.gates = spec.gates;
    config.inputs = spec.inputs;
    config.outputs = 12;
    config.seed = spec.seed;
    Design d{"train_rand" + std::to_string(index++), make_random_logic(config), {}};
    d.roles = uniform_roles(d.netlist, InputRole::kData);
    designs.push_back(std::move(d));
  }
  {
    Design d{"train_sbox2", make_aes_sbox_layer(2), {}};
    d.roles = split_roles(d.netlist, 16, InputRole::kData, InputRole::kKey);
    designs.push_back(std::move(d));
  }
  {
    Design d{"train_adder16", make_adder(16), {}};
    d.roles = uniform_roles(d.netlist, InputRole::kData);
    designs.push_back(std::move(d));
  }
  {
    Design d{"train_mult8", make_multiplier(8), {}};
    d.roles = split_roles(d.netlist, 8, InputRole::kData, InputRole::kKey);
    designs.push_back(std::move(d));
  }
  {
    // Digit-recurrence block (subtract/compare/select), covering the
    // mux-chain structure of the div/sqrt evaluation designs the way the
    // ISCAS-85 ALU circuits (c880, c2670) cover datapath control.
    Design d{"train_div8", make_divider(8), {}};
    d.roles = split_roles(d.netlist, 8, InputRole::kData, InputRole::kKey);
    designs.push_back(std::move(d));
  }
  return designs;
}

Design get_design(const std::string& name, double scale) {
  for (const auto& known : evaluation_names()) {
    if (known == name) return build_eval(name, scale);
  }
  auto training = training_suite();
  for (auto& design : training) {
    if (design.name == name) return std::move(design);
  }
  throw std::invalid_argument("unknown design: " + name);
}

DesignSource resolve_design(const std::string& name_or_path, double scale) {
  // Also keeps NaN, negative and unbounded scales away from the size_t
  // casts in scaled().
  if (!(scale > 0.0 && scale <= 1.0)) {
    char text[32];
    char* end = std::to_chars(text, text + sizeof(text), scale).ptr;
    throw std::invalid_argument("design scale must be in (0, 1], got " +
                                std::string(text, end));
  }
  DesignSource source;
  source.name = name_or_path;
  source.scale = scale;
  source.from_file = name_or_path.size() > 2 &&
                     name_or_path.compare(name_or_path.size() - 2, 2, ".v") == 0;
  if (source.from_file) source.verilog = util::read_file(name_or_path);
  return source;
}

Design build_design(const DesignSource& source) {
  if (!source.from_file) return get_design(source.name, source.scale);
  Design design;
  design.name = source.name;
  design.netlist = netlist::from_verilog(source.verilog);
  design.roles.assign(design.netlist.primary_inputs().size(), InputRole::kData);
  return design;
}

Design load_design(const std::string& name_or_path, double scale) {
  return build_design(resolve_design(name_or_path, scale));
}

}  // namespace polaris::circuits
