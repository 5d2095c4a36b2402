// Compiled sampling plan: the fused toggle/energy readout layout shared by
// power::PowerModel consumers and tvla campaigns.
//
// Built once per (design, power model, compiled plan) triple, it resolves
// every active gate (nonzero switching energy) to its compiled toggle slot
// and pre-buckets the set by TVLA group:
//  * singles - groups with exactly one active member: the binary-counting
//    fast path (per-trace sample is 0 or the member's energy). Nothing
//    here reads their toggle words: the simulator's counting eval
//    (sim::Simulator::eval_counting) counts the singles' slots' toggles
//    by class in its write step, and the campaign adds each single's slot
//    counts into its moments once per shard (tvla.cpp);
//  * multis  - members of groups with >= 2 active cells (masked composite
//    gates, and readers charged a demask XOR), sorted by group: one
//    contiguous run of (toggle slot, multi index, energy) per group.
//
// Accumulation-order contract (what keeps golden t-stats bit-identical):
// each multi group owns one float sequence per class and nothing else
// touches it. A sample is the group's lane sum, its members' energies
// added in ascending GateId order; samples enter the class's Pebay mean/S2
// update word-major and lane-ascending. Only this order within a group is
// fixed. At one (word, lane) every multi group takes its sample in the same
// class after the same count, so groups are independent and the readout
// runs them side by side, kTileGroups at a time:
//  1. per sampled word, the tile's member energies are summed per lane into
//     a scratch tile that stays in L1;
//  2. the word's fixed-class lanes, then its random-class lanes, each push
//     one sample into every group of the tile at once: one vector of Pebay
//     updates over the tile's structure-of-arrays mean/S2 state.
// The two classes' states never meet before finalize, so pushing a word's
// fixed lanes before its random ones changes nothing either class sees.
// Integer single counters are order-free, which is why they can be counted
// at write time and flushed per shard.
//
// Two kernels implement the readout (sample_plan_kernels.hpp), chosen per
// block by the sim::simd policy (sim::avx2_enabled()): a portable one
// (a ctz loop over set toggle bits, then a lane-major push) and an AVX2 one
// (branch-free masked lane adds, then a vector push). Both run the same
// IEEE operations on the same values in the same order per group, so they
// agree bit for bit (DESIGN.md, "Fused sampling plan and the
// accumulation-order contract").
//
// Blocked readout (sample()): one call ingests a whole K-word lane block -
// up to K batches of 64 traces evaluated in one simulator pass. Word-major
// order per group is exactly the batch-major sample sequence the
// one-word-at-a-time path produced, so every block width gives the same
// bits. Tail contract: only the first `active_words` words of a block are
// sampled; trailing words (trace counts not divisible by 64*K) are
// evaluated but never read. Each campaign compiles its design once (a
// batch of audits compiles its designs one by one on the submitting
// thread, in tvla::submit) and builds this plan once in its ShardRunner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "sim/compiled.hpp"

namespace polaris::power {

class SamplePlan {
 public:
  static constexpr std::uint32_t kNotMulti = 0xffffffffU;
  /// Multi groups read out side by side. Chosen by measurement: on masked
  /// square and des3, 4 and 16 were within noise of 8, and 32 was measured
  /// twice as slow.
  static constexpr std::size_t kTileGroups = 8;
  /// Scratch doubles sample() needs: one lane-major and one group-major
  /// tile of 64 lanes.
  static constexpr std::size_t kScratchDoubles = 2 * kTileGroups * 64;

  /// `compiled` must be a plan for the same netlist `power` was built on.
  SamplePlan(const sim::CompiledDesign& compiled, const PowerModel& power);

  /// One lone-member group: its toggle slot's counts are its samples.
  struct SingleOp {
    std::uint32_t toggle_slot;
    netlist::GateId group;
  };
  /// One member of a multi-member group: add `energy` to the group's
  /// sample in each lane whose toggle bit is set.
  struct MultiOp {
    std::uint32_t toggle_slot;
    std::uint32_t multi;  // dense index into the multi-group space
    double energy;
  };
  /// One class's multi-group state as the readout updates it in place:
  /// running means and centred sums of squares, dense by multi index, and
  /// the class's sample count before the block (shared by every group).
  struct ClassState {
    double* mean;
    double* s2;
    std::uint64_t count;
  };

  [[nodiscard]] const std::vector<SingleOp>& singles() const { return singles_; }
  /// Every multi member, grouped by multi index (see multi_members()).
  [[nodiscard]] const std::vector<MultiOp>& multis() const { return multis_; }
  /// Multi group `multi`'s members, in ascending GateId order.
  [[nodiscard]] std::span<const MultiOp> multi_members(
      std::size_t multi) const {
    return std::span(multis_).subspan(
        multi_begin_[multi], multi_begin_[multi + 1] - multi_begin_[multi]);
  }

  /// Total leakage-accounting groups (max gate group id + 1).
  [[nodiscard]] std::size_t group_count() const { return group_measured_.size(); }
  /// Groups with at least one active member (the measurable set).
  [[nodiscard]] const std::vector<bool>& group_measured() const {
    return group_measured_;
  }
  [[nodiscard]] std::size_t multi_group_count() const {
    return multi_group_ids_.size();
  }
  /// Dense multi index of a group, or kNotMulti for single/empty groups.
  [[nodiscard]] std::uint32_t group_multi_index(netlist::GateId group) const {
    return group_multi_index_[group];
  }
  /// Lone member's switching energy for single groups (0 otherwise): places
  /// the binary {0, E} samples on the physical scale the noise floor lives on.
  [[nodiscard]] double single_energy(netlist::GateId group) const {
    return single_energy_[group];
  }

  /// Multi-group readout of one K-word lane block, and its class counts.
  ///   toggle_words - blocked array (slot s owns words [s*K, (s+1)*K))
  ///   lane_words   - K, the simulator's block width
  ///   active_words - words actually carrying sampled batches (tail: < K)
  ///   class_masks  - per-word fixed-class lane masks (active_words entries)
  ///   scratch      - kScratchDoubles doubles, zeroed before the first
  ///                  call; each call leaves it ready for the next
  ///   moments      - tvla::CampaignMoments-shaped sink (template keeps the
  ///                  power module independent of the tvla module)
  /// Multi groups go through read_multis() - the accumulation-order
  /// contract above. Singles are not read here (see the file comment).
  template <class Moments>
  void sample(const std::uint64_t* toggle_words, std::size_t lane_words,
              std::size_t active_words, const std::uint64_t* class_masks,
              double* scratch, Moments& moments) const {
    constexpr std::size_t kLanesPerWord = 64;
    // The multi readout reads the class counts from before the block.
    if (!multi_group_ids_.empty()) {
      read_multis(toggle_words, lane_words, active_words, class_masks,
                  {moments.multi_mean_data(true), moments.multi_s2_data(true),
                   moments.n_fixed()},
                  {moments.multi_mean_data(false),
                   moments.multi_s2_data(false), moments.n_random()},
                  scratch);
    }
    for (std::size_t w = 0; w < active_words; ++w) {
      const auto n_fixed =
          static_cast<std::uint64_t>(__builtin_popcountll(class_masks[w]));
      moments.add_lane_counts(n_fixed, kLanesPerWord - n_fixed);
    }
  }

 private:
  /// The multi-group half of sample(): every sampled lane of the block
  /// pushes one sample into each multi group's state of its class, tile by
  /// tile. Runs the AVX2 kernel when sim::avx2_enabled() and the build has
  /// it, the portable kernel otherwise; both give the same bits.
  void read_multis(const std::uint64_t* toggle_words, std::size_t lane_words,
                   std::size_t active_words, const std::uint64_t* class_masks,
                   ClassState fixed, ClassState random, double* scratch) const;

  std::vector<SingleOp> singles_;
  std::vector<MultiOp> multis_;
  std::vector<std::uint32_t> multi_begin_;  // multi_group_count() + 1 offsets
  std::vector<bool> group_measured_;
  std::vector<std::uint32_t> group_multi_index_;
  std::vector<netlist::GateId> multi_group_ids_;
  std::vector<double> single_energy_;
};

}  // namespace polaris::power
