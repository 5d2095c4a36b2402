#include "netlist/verilog.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace polaris::netlist {
namespace {

std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'n');
  }
  return out;
}

}  // namespace

std::string to_verilog(const Netlist& netlist) {
  // Unique, sanitized name per net. The first net to want a name gets it;
  // a later one takes the first `name_k` not yet taken by any net, with k
  // counting up from 1 per base name. `taken` maps each name in use to the
  // next suffix to try for it.
  std::vector<std::string> net_name(netlist.net_count());
  std::unordered_map<std::string, std::size_t> taken;
  taken.reserve(netlist.net_count());
  std::size_t name_bytes = 0;  // sizes the output buffer
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    std::string name = sanitize(netlist.net(n).name);
    const auto [it, fresh] = taken.try_emplace(name, 1);
    if (!fresh) {
      std::size_t& suffix = it->second;  // stays valid across rehashes
      const std::string base = std::move(name);
      do {
        name = base + "_" + std::to_string(suffix++);
      } while (!taken.try_emplace(name, 1).second);
    }
    name_bytes += name.size() * (2 + netlist.net(n).fanouts.size());
    net_name[n] = std::move(name);
  }

  std::vector<bool> is_output(netlist.net_count(), false);
  for (const NetId n : netlist.primary_outputs()) is_output[n] = true;
  std::vector<bool> is_input(netlist.net_count(), false);
  for (const NetId n : netlist.primary_inputs()) is_input[n] = true;

  std::string out;
  out.reserve(name_bytes + 16 * netlist.net_count() +
              32 * netlist.gate_count() + 256);
  out += "// generated by polaris::netlist::to_verilog\n";
  out += "module ";
  out += sanitize(netlist.name());
  out += " (";
  bool first = true;
  for (const auto* ports :
       {&netlist.primary_inputs(), &netlist.primary_outputs()}) {
    for (const NetId n : *ports) {
      if (!first) out += ", ";
      out += net_name[n];
      first = false;
    }
  }
  out += ");\n";

  const auto declare = [&](std::string_view kind, NetId n) {
    out += "  ";
    out += kind;
    out += ' ';
    out += net_name[n];
    out += ";\n";
  };
  for (const NetId n : netlist.primary_inputs()) declare("input", n);
  for (const NetId n : netlist.primary_outputs()) declare("output", n);
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    if (!is_input[n] && !is_output[n]) declare("wire", n);
  }

  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const Gate& gate = netlist.gate(g);
    if (gate.type == CellType::kInput) continue;  // ports, not instances
    out += "  ";
    out += to_string(gate.type);
    out += " g";
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, g).ptr);
    out += " (";
    out += net_name[gate.output];
    for (const NetId in : gate.inputs) {
      out += ", ";
      out += net_name[in];
    }
    out += ");\n";
  }
  out += "endmodule\n";
  return out;
}

namespace {

/// Strips // and /* */ comments, preserving line breaks for error messages.
std::string strip_comments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLine, kBlock } state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = (i + 1 < text.size()) ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') { state = State::kLine; ++i; }
        else if (c == '/' && next == '*') { state = State::kBlock; ++i; }
        else out += c;
        break;
      case State::kLine:
        if (c == '\n') { state = State::kCode; out += c; }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') { state = State::kCode; ++i; }
        else if (c == '\n') out += c;
        break;
    }
  }
  return out;
}

struct Statement {
  std::string text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("verilog:" + std::to_string(line) + ": " + message);
}

}  // namespace

Netlist from_verilog(const std::string& text) {
  const std::string code = strip_comments(text);

  // Split into ';'-terminated statements, tracking line numbers.
  std::vector<Statement> statements;
  std::string current;
  int line = 1;
  int stmt_line = 1;
  for (const char c : code) {
    if (c == '\n') ++line;
    if (c == ';') {
      statements.push_back({current, stmt_line});
      current.clear();
      stmt_line = line;
    } else {
      if (current.empty()) stmt_line = line;
      current += c;
    }
  }
  const std::string tail(util::trim(current));
  if (!tail.empty() && tail != "endmodule") {
    fail(stmt_line, "unterminated statement: '" + tail + "'");
  }

  Netlist netlist("top");
  std::map<std::string, NetId> net_of;
  std::vector<std::string> output_names;
  bool module_seen = false;

  const auto get_net = [&](const std::string& name) -> NetId {
    const auto it = net_of.find(name);
    if (it != net_of.end()) return it->second;
    const NetId id = netlist.add_net(name);
    net_of.emplace(name, id);
    return id;
  };

  for (const auto& [raw, at] : statements) {
    std::string stmt(util::trim(raw));
    // 'endmodule' may be glued to the front of nothing or appear alone after
    // the last ';'; it carries no content either way.
    if (stmt.empty() || stmt == "endmodule") continue;

    if (util::starts_with(stmt, "module")) {
      if (module_seen) fail(at, "multiple modules are not supported");
      module_seen = true;
      const std::size_t paren = stmt.find('(');
      const std::string header = stmt.substr(0, paren == std::string::npos
                                                    ? stmt.size()
                                                    : paren);
      const auto words = util::split(header, " \t\n");
      if (words.size() < 2) fail(at, "module name missing");
      netlist.set_name(words[1]);
      continue;  // port list is implied by input/output declarations
    }
    if (!module_seen) fail(at, "statement before module header");

    const auto words = util::split(stmt, " \t\n(),");
    if (words.empty()) continue;
    const std::string kind = util::to_lower(words[0]);

    if (kind == "input") {
      for (std::size_t i = 1; i < words.size(); ++i) {
        if (net_of.count(words[i]) != 0) fail(at, "duplicate net: " + words[i]);
        net_of.emplace(words[i], netlist.add_input(words[i]));
      }
      continue;
    }
    if (kind == "output") {
      for (std::size_t i = 1; i < words.size(); ++i) {
        output_names.push_back(words[i]);
        get_net(words[i]);
      }
      continue;
    }
    if (kind == "wire") {
      for (std::size_t i = 1; i < words.size(); ++i) get_net(words[i]);
      continue;
    }
    if (kind == "assign") {
      // assign lhs = rhs;  with rhs in {1'b0, 1'b1, net}
      const auto parts = util::split(stmt.substr(6), "= \t\n");
      if (parts.size() != 2) fail(at, "malformed assign");
      const NetId lhs = get_net(parts[0]);
      if (parts[1] == "1'b0") {
        netlist.add_cell_driving(CellType::kConst0, {}, lhs);
      } else if (parts[1] == "1'b1") {
        netlist.add_cell_driving(CellType::kConst1, {}, lhs);
      } else {
        const NetId rhs = get_net(parts[1]);
        netlist.add_cell_driving(CellType::kBuf, std::array{rhs}, lhs);
      }
      continue;
    }

    // Primitive instantiation: TYPE INSTNAME (out, in...);
    CellType type;
    try {
      type = cell_type_from_string(kind);
    } catch (const std::invalid_argument&) {
      fail(at, "unknown statement or cell type: '" + kind + "'");
    }
    if (type == CellType::kInput) fail(at, "'input' cells cannot be instantiated");
    if (words.size() < 3 && !is_source(type)) {
      fail(at, "instance needs a name and ports: '" + stmt + "'");
    }
    // words[1] = instance name (ignored; ids are positional).
    std::vector<NetId> ports;
    for (std::size_t i = 2; i < words.size(); ++i) ports.push_back(get_net(words[i]));
    if (ports.empty()) fail(at, "instance has no ports: '" + stmt + "'");
    const NetId out_net = ports.front();
    const std::vector<NetId> inputs(ports.begin() + 1, ports.end());
    try {
      netlist.add_cell_driving(type, inputs, out_net);
    } catch (const std::invalid_argument& error) {
      fail(at, error.what());
    }
  }

  for (const std::string& name : output_names) {
    netlist.mark_output(net_of.at(name));
  }
  netlist.validate();
  return netlist;
}

void write_verilog_file(const Netlist& netlist, const std::string& path) {
  // Atomic (temp + rename): an interrupted run must never leave a
  // truncated netlist for the downstream flow to pick up.
  util::write_file_atomic(path, to_verilog(netlist));
}

Netlist read_verilog_file(const std::string& path) {
  return from_verilog(util::read_file(path));
}

}  // namespace polaris::netlist
