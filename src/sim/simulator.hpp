// Levelized, bit-parallel, two-state logic simulator over K-word lane
// blocks.
//
// Each std::uint64_t word holds one signal across 64 independent simulation
// lanes (traces); a simulator constructed with lane_words = K carries K
// such words per signal (64*K traces per eval), stored slot-major: slot i
// owns words [i*K, (i+1)*K). K is 1 (the default: sequential campaigns
// and one-off simulators) or 4 (combinational campaigns, 256 traces per
// eval). One eval() is one clock cycle: sources are refreshed (constants,
// fresh mask randomness, DFF state), then the combinational wave runs
// through the compiled, type-batched schedule at the full block width
// (sim/simd.hpp selects the AVX2 or portable kernel).
// latch() commits DFF next-state for every word.
//
// The Simulator is a thin mutable state - value words, toggle words, DFF
// state, one mask-share RNG per lane word - over a shared immutable
// CompiledDesign (compiled.hpp). Construct it from a netlist for one-off
// use (compiles privately) or from a CompiledDesignPtr to share one plan
// across many simulators: a TVLA campaign compiles once and every shard
// reuses the plan.
//
// Lane-word independence contract: word w of a K-word simulator behaves
// exactly like word 0 of a 1-word simulator seeded with
// word_seed(seed, w) and driven with the same per-word inputs - each word
// owns an independent kRand stream that draws in ascending source-slot
// order, so blocked execution never couples words (the property tests run
// K reference oracles in lockstep against one K-word simulator). The
// word-0 view (value(), toggles(), set_input(), ...) is unchanged from
// the single-word simulator. TVLA campaigns overwrite each word's stream
// per batch via reseed_word, keeping the per-batch keyed RNG contract.
//
// Toggle words (value XOR value-at-previous-eval, per gate output) are the
// input to the Hamming-distance power model (power module) and to TVLA
// accumulation. They are maintained at write time by the kernel - slots not
// written by eval(), i.e. primary inputs staged via set_input*, read as 0.
// eval_counting() also counts the toggles of each written slot the caller
// flags, by class, as it writes them (sim::ToggleCounter): TVLA campaigns
// read their single-member groups from those counts.
//
// Model notes (documented substitutions, see DESIGN.md):
//  * zero-delay evaluation - no glitch power;
//  * two-state logic - DFFs initialize to 0, no X propagation;
//  * kRand cells draw from a deterministic xoshiro stream (per-simulator
//    seed), modelling the on-chip mask-share PRNG.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/simd.hpp"
#include "util/rng.hpp"

namespace polaris::sim {

inline constexpr std::size_t kLanes = 64;

class Simulator {
 public:
  /// Convenience: compiles the netlist privately. Prefer the shared-plan
  /// constructor when many simulators run the same design. Throws
  /// std::invalid_argument unless valid_lane_words(lane_words): 1 or 4.
  explicit Simulator(const netlist::Netlist& netlist,
                     std::uint64_t seed = 0x51313ab1e5eedULL,
                     std::size_t lane_words = 1);
  explicit Simulator(CompiledDesignPtr compiled,
                     std::uint64_t seed = 0x51313ab1e5eedULL,
                     std::size_t lane_words = 1);

  [[nodiscard]] const netlist::Netlist& design() const {
    return compiled_->design();
  }
  [[nodiscard]] const CompiledDesignPtr& compiled() const { return compiled_; }
  [[nodiscard]] std::size_t lane_words() const { return lane_words_; }

  /// Seed of lane word w's kRand stream for a simulator seeded with
  /// `seed`: word 0 keeps the seed itself (so a 1-word simulator is
  /// byte-compatible with the pre-block simulator), later words get
  /// splitmix-mixed children. Public so oracles can reproduce word w.
  [[nodiscard]] static std::uint64_t word_seed(std::uint64_t seed,
                                               std::size_t word) noexcept;

  /// Sets the 64-lane value of the i-th primary input (lane word 0).
  void set_input(std::size_t pi_index, std::uint64_t word);
  /// Sets lane word `word_index` of the i-th primary input.
  void set_input_word(std::size_t pi_index, std::size_t word_index,
                      std::uint64_t word);
  /// Fills every primary input of every lane word with fresh random words
  /// (word w draws from its own stream, inputs in ascending order).
  void set_inputs_random();

  /// One combinational evaluation (one cycle worth of settled values) over
  /// all lane words. Never throws: the plan was validated at compile time.
  /// `record_toggles = false` skips toggle recording in the combinational
  /// wave (values and RNG consumption are identical) - for scaffolding
  /// evals whose transition is never sampled, like the base-state pass of
  /// a TVLA trace pair; the next recording eval rewrites every gate's
  /// toggle from the values array, so sampled toggles are unaffected.
  void eval(bool record_toggles = true);
  /// eval() that also adds the toggle counts of every written slot that
  /// `counter` flags (compiled.hpp): sources in the refresh, the rest in
  /// the combinational wave's write step. Slots eval() does not write add
  /// nothing. Values, toggle words and RNG consumption match eval().
  void eval_counting(const ToggleCounter& counter);
  /// Commits DFF next state (q <= d) for every lane word. No-op for purely
  /// combinational designs.
  void latch();
  /// Clears DFF state and all signal values to 0 and reseeds mask
  /// randomness (word w from word_seed(seed, w)).
  void reset(std::uint64_t seed);
  /// Reseeds the mask-share (kRand) randomness only, leaving signal state
  /// untouched: word w gets word_seed(seed, w). Trace shards key this per
  /// batch so a batch's randomness never depends on which shard executed
  /// the preceding batches.
  void reseed(std::uint64_t seed);
  /// Reseeds one lane word's kRand stream. Blocked TVLA shards key word w
  /// of a block starting at batch b with batch (b + w)'s stream seed, so
  /// every batch's mask randomness is identical at every block width.
  void reseed_word(std::size_t word_index, std::uint64_t seed);

  [[nodiscard]] std::uint64_t value(netlist::NetId net) const {
    return values_[static_cast<std::size_t>(compiled_->slot(net)) *
                   lane_words_];
  }
  [[nodiscard]] std::uint64_t value_word(netlist::NetId net,
                                         std::size_t word_index) const {
    return values_[static_cast<std::size_t>(compiled_->slot(net)) *
                       lane_words_ +
                   word_index];
  }
  /// Output-toggle word of a gate: value XOR value-at-previous-eval.
  [[nodiscard]] std::uint64_t toggles(netlist::GateId gate) const {
    return toggles_[static_cast<std::size_t>(compiled_->toggle_slot(gate)) *
                    lane_words_];
  }
  [[nodiscard]] std::uint64_t toggles_word(netlist::GateId gate,
                                           std::size_t word_index) const {
    return toggles_[static_cast<std::size_t>(compiled_->toggle_slot(gate)) *
                        lane_words_ +
                    word_index];
  }
  /// Raw blocked toggle words: slot s's words at [s*lane_words(),
  /// (s+1)*lane_words()). Sampling plans resolve
  /// CompiledDesign::toggle_slot once and read this array directly.
  [[nodiscard]] const std::uint64_t* toggle_words() const {
    return toggles_.data();
  }

  /// Single-lane convenience for functional tests: applies `bits` to the
  /// primary inputs (broadcast to every lane), evaluates, and returns
  /// lane-0 output bits in primary_outputs() order. Does not latch.
  [[nodiscard]] std::vector<bool> eval_single(const std::vector<bool>& bits);

 private:
  /// Source refresh (constants, fresh mask randomness, DFF state) with
  /// write-time toggles, counted into `counter` when it is non-null.
  void refresh_sources(const ToggleCounter* counter);

  CompiledDesignPtr compiled_;
  std::size_t lane_words_;
  std::vector<util::Xoshiro256> rngs_;  // one kRand stream per lane word
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> toggles_;
  std::vector<std::uint64_t> dff_state_;
};

}  // namespace polaris::sim
