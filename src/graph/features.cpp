#include "graph/features.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace polaris::graph {

using netlist::CellType;
using netlist::GateId;

std::vector<std::string> FeatureSpec::feature_names() const {
  std::vector<std::string> names;
  names.reserve(dim());
  for (std::size_t slot = 0; slot < node_slots(); ++slot) {
    for (std::size_t t = 0; t < netlist::kCellTypeCount; ++t) {
      names.push_back(util::numbered("G", slot) + "=" +
                      std::string(netlist::to_string(static_cast<CellType>(t))));
    }
  }
  for (std::size_t a = 0; a < node_slots(); ++a) {
    for (std::size_t b = a + 1; b < node_slots(); ++b) {
      names.push_back(util::numbered("adj(G", a) + util::numbered(",G", b) +
                      ")");
    }
  }
  names.emplace_back("fanin");
  names.emplace_back("fanout");
  names.emplace_back("level");
  return names;
}

FeatureExtractor::FeatureExtractor(const netlist::Netlist& netlist,
                                   FeatureSpec spec)
    : netlist_(netlist), spec_(spec), graph_(netlist), levels_(netlist.levels()) {
  const auto max_it = std::max_element(levels_.begin(), levels_.end());
  depth_norm_ = (max_it == levels_.end() || *max_it == 0)
                    ? 1.0
                    : static_cast<double>(*max_it);
}

std::vector<double> FeatureExtractor::extract(GateId gate) {
  std::vector<double> features(spec_.dim());
  extract(gate, features, scratch_);
  return features;
}

void FeatureExtractor::extract(GateId gate, std::span<double> row,
                               Scratch& scratch) const {
  std::fill(row.begin(), row.end(), 0.0);

  // Node list [G0 = gate, G1..GL] in deterministic BFS order.
  auto& nodes = scratch.nodes;
  nodes.assign(1, gate);
  const auto hood = bfs_neighborhood(graph_, gate, spec_.locality, scratch.bfs);
  nodes.insert(nodes.end(), hood.begin(), hood.end());

  // One-hot cell types. Slots beyond the actual neighborhood stay zero.
  for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
    const auto type = netlist_.gate(nodes[slot]).type;
    row[slot * netlist::kCellTypeCount + static_cast<std::size_t>(type)] = 1.0;
  }

  // Upper-triangular adjacency of the induced sub-graph.
  std::size_t offset = spec_.type_dims();
  for (std::size_t a = 0; a < spec_.node_slots(); ++a) {
    for (std::size_t b = a + 1; b < spec_.node_slots(); ++b, ++offset) {
      if (a < nodes.size() && b < nodes.size() &&
          graph_.adjacent(nodes[a], nodes[b])) {
        row[offset] = 1.0;
      }
    }
  }

  // Normalized scalars.
  const auto& g = netlist_.gate(gate);
  row[offset++] = std::min(1.0, static_cast<double>(g.inputs.size()) / 8.0);
  row[offset++] = std::min(
      1.0, static_cast<double>(netlist_.net(g.output).fanouts.size()) / 16.0);
  row[offset++] = static_cast<double>(levels_[gate]) / depth_norm_;
}

}  // namespace polaris::graph
