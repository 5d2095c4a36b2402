// Standalone leakage auditor: the assessment half of the flow, usable
// before committing to any mitigation. Reads a structural-Verilog netlist
// (or builds a stand-in), runs fixed-vs-random TVLA at several trace
// budgets, and emits a per-gate report CSV plus a console summary of the
// worst offenders with their structural context.
//
//   $ ./leakage_audit [netlist.v]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "circuits/aes_sbox.hpp"
#include "graph/graph.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace polaris;

int main(int argc, char** argv) {
  const auto lib = techlib::TechLibrary::default_library();

  netlist::Netlist design = argc > 1
                                ? netlist::read_verilog_file(argv[1])
                                : circuits::make_aes_sbox_layer(2);
  std::printf("auditing '%s':\n%s\n", design.name().c_str(),
              netlist::to_string(netlist::compute_stats(design)).c_str());

  // Escalating trace budgets: report how the flagged set grows (stopping
  // early is how real assessments miss marginal leaks).
  tvla::TvlaConfig config;
  util::Table sweep({"traces", "leaky", "worst|t|", "leak/gate"});
  tvla::LeakageReport last({}, {}, 4.5);
  for (const std::size_t traces : {1024u, 4096u, 16384u}) {
    config.traces = traces;
    last = tvla::run_fixed_vs_random(design, lib, config);
    double worst = 0.0;
    for (const double t : last.t_values()) worst = std::max(worst, std::fabs(t));
    sweep.add_row({std::to_string(traces), std::to_string(last.leaky_count()),
                   util::format_double(worst, 2),
                   util::format_double(last.leakage_per_gate(), 3)});
  }
  std::fputs(sweep.render().c_str(), stdout);

  // Worst offenders with structural context (what POLARIS's features see).
  const graph::GraphView graph(design);
  const auto leaky = last.leaky_groups();
  std::printf("\ntop offenders at %zu traces:\n", config.traces);
  util::Table top({"gate", "type", "|t|", "fanin", "fanout", "neighbors"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, leaky.size()); ++i) {
    const auto g = leaky[i];
    const auto& gate = design.gate(g);
    std::string hood;
    for (const auto nb : graph::bfs_neighborhood(graph, g, 4)) {
      hood += std::string(netlist::to_string(design.gate(nb).type)) + " ";
    }
    top.add_row({util::numbered("g", g),
                 std::string(netlist::to_string(gate.type)),
                 util::format_double(std::fabs(last.t_value(g)), 2),
                 std::to_string(gate.inputs.size()),
                 std::to_string(design.net(gate.output).fanouts.size()), hood});
  }
  std::fputs(top.render().c_str(), stdout);

  util::CsvWriter csv({"gate", "type", "t"});
  for (netlist::GateId g = 0; g < last.group_count(); ++g) {
    if (!last.measured(g)) continue;
    csv.add_row({std::to_string(g),
                 std::string(netlist::to_string(design.gate(g).type)),
                 util::format_double(last.t_value(g), 4)});
  }
  csv.write_file("leakage_audit.csv");
  std::printf("\nfull per-gate report written to leakage_audit.csv\n");
  return 0;
}
