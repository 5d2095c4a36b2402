// Structural feature extraction (paper Sec. IV-A, Fig. 2).
//
// "The structural features of a gate include information such as their
//  local placement and interconnections. In a sub-design graph, gate
//  connectivity is encoded with an adjacency matrix and one-hot encoding."
//
// For a gate i with locality L, the induced sub-graph over the BFS node list
// [G0 = i, G1 .. GL] is vectorized as:
//   * one-hot cell type of G0..GL               ((L+1) * kCellTypeCount)
//   * upper-triangular adjacency bits of the sub-graph  ((L+1)L/2)
//   * three normalized scalars: fan-in, fan-out, logic level
//
// Feature names mirror the paper's rule vocabulary (Table V): "G4=nand",
// "adj(G8,G9)", so SHAP attributions translate directly into
// human-readable masking rules.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "netlist/netlist.hpp"

namespace polaris::graph {

struct FeatureSpec {
  /// Locality L: number of BFS neighbors considered (paper default 7).
  std::size_t locality = 7;

  [[nodiscard]] std::size_t node_slots() const { return locality + 1; }
  [[nodiscard]] std::size_t type_dims() const {
    return node_slots() * netlist::kCellTypeCount;
  }
  [[nodiscard]] std::size_t adjacency_dims() const {
    return node_slots() * (node_slots() - 1) / 2;
  }
  [[nodiscard]] std::size_t scalar_dims() const { return 3; }
  [[nodiscard]] std::size_t dim() const {
    return type_dims() + adjacency_dims() + scalar_dims();
  }

  /// Human-readable name of each feature dimension.
  [[nodiscard]] std::vector<std::string> feature_names() const;
};

/// Extractor bound to one design; precomputes the graph view and levels so
/// per-gate extraction is allocation-light. `extract(gate)` uses the
/// extractor's own scratch, so it is not thread-safe. `extract(gate, row,
/// scratch)` is const and uses the caller's scratch: many threads may call
/// it on one extractor at once (they share its read-only graph view and
/// level table), each with its own Scratch and row.
class FeatureExtractor {
 public:
  /// Per-thread working memory of the const extract.
  struct Scratch {
    BfsScratch bfs;
    std::vector<netlist::GateId> nodes;  // [G0 = gate, G1..GL]
  };

  FeatureExtractor(const netlist::Netlist& netlist, FeatureSpec spec);

  [[nodiscard]] const FeatureSpec& spec() const { return spec_; }
  [[nodiscard]] const GraphView& graph() const { return graph_; }

  /// Feature vector of `gate` (size spec().dim()).
  [[nodiscard]] std::vector<double> extract(netlist::GateId gate);
  /// The same vector, written into `row` (spec().dim() values).
  void extract(netlist::GateId gate, std::span<double> row,
               Scratch& scratch) const;

 private:
  const netlist::Netlist& netlist_;
  FeatureSpec spec_;
  GraphView graph_;
  Scratch scratch_;
  std::vector<std::uint32_t> levels_;
  double depth_norm_ = 1.0;
};

}  // namespace polaris::graph
