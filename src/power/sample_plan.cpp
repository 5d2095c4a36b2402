#include "power/sample_plan.hpp"

#include <algorithm>

#include "power/sample_plan_kernels.hpp"
#include "sim/simd.hpp"

namespace polaris::power {

using netlist::GateId;

SamplePlan::SamplePlan(const sim::CompiledDesign& compiled,
                       const PowerModel& power) {
  const netlist::Netlist& design = compiled.design();

  GateId max_group = 0;
  for (const auto& gate : design.gates()) {
    max_group = std::max(max_group, gate.group);
  }
  const std::size_t group_count = static_cast<std::size_t>(max_group) + 1;

  std::vector<std::uint32_t> group_size(group_count, 0);
  group_measured_.assign(group_count, false);
  for (const GateId g : power.active_gates()) {
    group_size[design.gate(g).group]++;
    group_measured_[design.gate(g).group] = true;
  }

  // Multi-member groups need real-valued samples; single-member groups use
  // the binary counting fast path.
  group_multi_index_.assign(group_count, kNotMulti);
  for (GateId grp = 0; grp < group_count; ++grp) {
    if (group_size[grp] > 1) {
      group_multi_index_[grp] =
          static_cast<std::uint32_t>(multi_group_ids_.size());
      multi_group_ids_.push_back(grp);
    }
  }

  // active_gates() is ascending by id, so singles_ and multis_ start in
  // ascending-GateId order; the stable sort by multi index then keeps that
  // order within each group and makes every tile's members contiguous.
  single_energy_.assign(group_count, 0.0);
  for (const GateId g : power.active_gates()) {
    const GateId grp = design.gate(g).group;
    const std::uint32_t multi = group_multi_index_[grp];
    if (multi == kNotMulti) {
      single_energy_[grp] = power.gate_energy(g);
      singles_.push_back(SingleOp{compiled.toggle_slot(g), grp});
    } else {
      multis_.push_back(
          MultiOp{compiled.toggle_slot(g), multi, power.gate_energy(g)});
    }
  }
  std::stable_sort(multis_.begin(), multis_.end(),
                   [](const MultiOp& a, const MultiOp& b) {
                     return a.multi < b.multi;
                   });
  multi_begin_.assign(multi_group_ids_.size() + 1, 0);
  for (const MultiOp& op : multis_) multi_begin_[op.multi + 1]++;
  for (std::size_t m = 0; m < multi_group_ids_.size(); ++m) {
    multi_begin_[m + 1] += multi_begin_[m];
  }
}

namespace {

using detail::kTileGroups;
using detail::kTileLanes;

/// The portable tile: plain doubles, one per group. The per-group loops
/// have a fixed trip count, so the compiler may vectorize them with the
/// base ISA's vectors; either way each group sees the same IEEE ops.
struct PortableTile {
  double v[kTileGroups];

  static PortableTile load(const double* p) {
    PortableTile t;
    for (std::size_t i = 0; i < kTileGroups; ++i) t.v[i] = p[i];
    return t;
  }
  void store(double* p) const {
    for (std::size_t i = 0; i < kTileGroups; ++i) p[i] = v[i];
  }
  static PortableTile broadcast(double x) {
    PortableTile t;
    for (std::size_t i = 0; i < kTileGroups; ++i) t.v[i] = x;
    return t;
  }
  static PortableTile take(double* p) {
    const PortableTile t = load(p);
    for (std::size_t i = 0; i < kTileGroups; ++i) p[i] = 0.0;
    return t;
  }
  friend PortableTile operator+(PortableTile a, const PortableTile& b) {
    for (std::size_t i = 0; i < kTileGroups; ++i) a.v[i] = a.v[i] + b.v[i];
    return a;
  }
  friend PortableTile operator-(PortableTile a, const PortableTile& b) {
    for (std::size_t i = 0; i < kTileGroups; ++i) a.v[i] = a.v[i] - b.v[i];
    return a;
  }
  friend PortableTile operator*(PortableTile a, const PortableTile& b) {
    for (std::size_t i = 0; i < kTileGroups; ++i) a.v[i] = a.v[i] * b.v[i];
    return a;
  }
  friend PortableTile operator/(PortableTile a, const PortableTile& b) {
    for (std::size_t i = 0; i < kTileGroups; ++i) a.v[i] = a.v[i] / b.v[i];
    return a;
  }

  /// Adds each member's energy into the lane-major tile at its set toggle
  /// bits only. A ctz loop: the base x86-64 ISA has no per-lane variable
  /// shift, and branch-free adds measured slower without one.
  static void sum_lanes(const detail::MultiBlock& block, std::size_t g0,
                        std::size_t w) {
    const std::size_t end =
        block.groups - g0 < kTileGroups ? block.groups : g0 + kTileGroups;
    for (std::size_t g = g0; g < end; ++g) {
      double* column = block.scratch + (g - g0);
      for (std::uint32_t k = block.member_begin[g];
           k < block.member_begin[g + 1]; ++k) {
        const SamplePlan::MultiOp& op = block.members[k];
        std::uint64_t bits =
            block.toggle_words[op.toggle_slot * block.lane_words + w];
        while (bits != 0) {
          column[static_cast<std::size_t>(__builtin_ctzll(bits)) *
                 kTileGroups] += op.energy;
          bits &= bits - 1;
        }
      }
    }
  }
};

static_assert(kTileLanes * kTileGroups * 2 == SamplePlan::kScratchDoubles);

}  // namespace

void SamplePlan::read_multis(const std::uint64_t* toggle_words,
                             std::size_t lane_words, std::size_t active_words,
                             const std::uint64_t* class_masks,
                             ClassState fixed, ClassState random,
                             double* scratch) const {
  const detail::MultiBlock block{multis_.data(), multi_begin_.data(),
                                 multi_group_ids_.size(), toggle_words,
                                 lane_words, active_words, class_masks,
                                 fixed, random, scratch};
  if (sim::avx2_enabled()) {
    if (const detail::MultiReadoutFn avx2 = detail::avx2_multi_readout()) {
      avx2(block);
      return;
    }
  }
  detail::read_multis_tiled<PortableTile>(block);
}

}  // namespace polaris::power
