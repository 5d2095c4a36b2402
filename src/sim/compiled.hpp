// Compile-once execution kernel for the bit-parallel simulator.
//
// A CompiledDesign is an immutable evaluation plan built once per netlist
// and shared (via shared_ptr) by every Simulator over that design: a TVLA
// campaign compiles in its constructor and hands the same plan to all of
// its shards, so per-shard setup no longer re-runs topological_order() or
// rebuilds a schedule.
//
// What compilation does:
//  * dense net renumbering - every net is mapped to a value *slot*,
//    sources first and combinational outputs in schedule order, so the hot
//    loop walks the value array forward;
//  * levelized, type-batched schedule - combinational gates are levelized
//    and, within each level, batched by opcode (cell type x uniform
//    fan-in) into contiguous *op runs*: one kernel dispatch per run and a
//    tight branch-free loop inside it, instead of a per-gate
//    eval_cell_word switch;
//  * buf/not prelude fusion - an adjacent kBuf/kNot run whose outputs are
//    all consumed by the run that immediately follows it is folded into
//    that consumer as a *prelude*: its ops still execute first and still
//    write their value/toggle slots (bit-identical to the unfused order),
//    but inside the consumer's dispatch, saving one dispatch per folded
//    run (fused_run_count());
//  * compile-time validation - cell kinds and fan-in arity are checked
//    once here (throws std::invalid_argument), so eval() carries no
//    per-gate checks and no fan-in cap: n-ary kernels accumulate straight
//    from the value array, with no operand staging buffer.
//
// Lane blocks: eval_comb evaluates `lane_words` 64-trace words per op in
// one pass over blocked arrays where slot i owns words [i*W, (i+1)*W).
// The kernel body is a width-generic template (compiled_kernels.hpp)
// instantiated portably for 1- and 4-word blocks and as one __m256i
// vector for the 4-word block; sim/simd.hpp owns the runtime dispatch
// policy (CPUID + POLARIS_SIMD). Both instantiations execute the same op
// order and the same write-time toggle rule, so they produce
// bit-identical words.
//
// Toggle contract: toggles are computed at write time (old XOR new, per
// written slot), which removes the previous_ = values_ full-vector copy
// the interpreter paid every cycle. Slots eval() does not write (primary
// inputs, which are staged by set_input* before the call) keep toggle 0,
// exactly matching the reference snapshot semantics. sim::ReferenceSimulator
// (reference.hpp) keeps the old gate-by-gate evaluator as the oracle the
// property tests compare against.
//
// Counting form: while `old ^ new` is still in a register, a counting eval
// also adds the class-split toggle counts of each written slot the caller
// flags into a caller-owned ToggleCount per slot (ToggleCounter below).
// TVLA campaigns count their single-member groups this way instead of
// re-reading the stored toggle words after the eval, and flag only those
// slots: on a masked design most written slots belong to multi-member
// groups, whose toggle words the campaign reads anyway.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"

namespace polaris::sim {

class Simulator;

namespace detail {
struct KernelAccess;

/// What the combinational wave does with each write's toggle word: kSkip
/// elides the toggle stores for evals whose transition nothing reads (the
/// values wave is unchanged; the toggle array then holds stale data until
/// the next recording eval rewrites it), kRecord stores it, and kCount
/// stores it and adds its counts into a ToggleCounter.
enum class ToggleMode : std::uint8_t { kSkip, kRecord, kCount };
}  // namespace detail

/// One slot's toggle counts, summed over the evals that counted it: over
/// each eval's lane words w, `fixed` adds popcount(toggle_w & fixed_w) and
/// `total` adds popcount(toggle_w & active_w).
struct ToggleCount {
  std::uint64_t fixed = 0;
  std::uint64_t total = 0;

  /// Adds one lane word's counts. The portable kernels and the source
  /// refresh count through this; the AVX2 block counts four words at once.
  void add(std::uint64_t toggle, std::uint64_t fixed_mask,
           std::uint64_t active_mask) noexcept {
    fixed += static_cast<std::uint64_t>(
        __builtin_popcountll(toggle & fixed_mask));
    total += static_cast<std::uint64_t>(
        __builtin_popcountll(toggle & active_mask));
  }
};

/// Where a counting eval adds its counts. Per slot (slot_count() entries,
/// owned by the caller): `counted` is nonzero for the slots to count, and
/// `counts` holds their ToggleCounts; other slots' entries are never
/// touched. Per lane word: the fixed-class lanes, and the lanes that are
/// sampled at all (all ones for a sampled word, zero for a block's
/// unsampled tail words, whose fixed mask must then be zero too).
struct ToggleCounter {
  ToggleCount* counts;
  const std::uint8_t* counted;
  const std::uint64_t* fixed_masks;
  const std::uint64_t* active_masks;
};

class CompiledDesign {
 public:
  /// Compiles `netlist` (must outlive the plan). Throws
  /// std::invalid_argument on an arity violation or a non-evaluable cell
  /// kind, std::runtime_error on a combinational cycle - after
  /// construction, evaluation cannot fail.
  explicit CompiledDesign(const netlist::Netlist& netlist);

  [[nodiscard]] const netlist::Netlist& design() const { return *netlist_; }

  /// Number of value slots (== the design's net count).
  [[nodiscard]] std::size_t slot_count() const { return slot_of_net_.size(); }
  /// Value slot of a net.
  [[nodiscard]] std::uint32_t slot(netlist::NetId net) const {
    return slot_of_net_[net];
  }
  /// Toggle/value slot of a gate's output net. Sampling plans resolve
  /// these once and index the simulator's toggle words directly.
  [[nodiscard]] std::uint32_t toggle_slot(netlist::GateId gate) const {
    return out_slot_of_gate_[gate];
  }

  [[nodiscard]] std::size_t level_count() const { return level_count_; }
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  [[nodiscard]] std::size_t dff_count() const { return dff_qd_slots_.size(); }
  /// kBuf/kNot runs folded into their consumer run as preludes (bench
  /// probes report this next to run_count()).
  [[nodiscard]] std::size_t fused_run_count() const { return fused_run_count_; }

 private:
  friend class Simulator;
  friend struct detail::KernelAccess;

  /// Specialized kernels: the common 1/2/3-operand shapes get dedicated
  /// loops; kXxxN handles any wider fan-in with an accumulator loop.
  enum class OpKernel : std::uint8_t {
    kBuf, kNot, kMux,
    kAnd2, kOr2, kNand2, kNor2, kXor2, kXnor2,
    kAndN, kOrN, kNandN, kNorN, kXorN, kXnorN,
  };

  /// A contiguous batch of same-kernel, same-fan-in ops within one level.
  /// Op i of the run writes op_out_slots_[op_begin + i] and reads its
  /// fan_in operands at op_input_slots_[input_base + i * fan_in]. A run
  /// may carry a *prelude* - the ops of a fused kBuf/kNot run that
  /// executed immediately before it - executed first within the same
  /// dispatch (prelude_invert selects kNot semantics).
  struct OpRun {
    OpKernel kernel;
    std::uint32_t fan_in;
    std::uint32_t op_begin;
    std::uint32_t op_count;
    std::uint32_t input_base;
    std::uint32_t prelude_op_begin = 0;
    std::uint32_t prelude_op_count = 0;  // 0 = no prelude
    std::uint32_t prelude_input_base = 0;
    bool prelude_invert = false;
  };

  /// Kernel selection doubles as the compile-time cell-kind check: throws
  /// std::invalid_argument for cells the combinational wave cannot evaluate.
  static OpKernel select_kernel(netlist::CellType type, std::size_t fan_in);

  /// Runs the full combinational wave over blocked `values`, with
  /// write-time toggles in `toggles` (both sized slot_count() *
  /// lane_words, slot-major) handled as `mode` says; `counter` is read
  /// only by kCount. Dispatches once per eval to the kernel the current
  /// SIMD policy selects for this width (sim/simd.hpp).
  void eval_comb(std::uint64_t* values, std::uint64_t* toggles,
                 std::size_t lane_words, detail::ToggleMode mode,
                 const ToggleCounter* counter) const;

  const netlist::Netlist* netlist_;
  std::vector<std::uint32_t> slot_of_net_;      // NetId -> slot
  std::vector<std::uint32_t> out_slot_of_gate_; // GateId -> output slot

  std::vector<std::uint32_t> const0_slots_, const1_slots_;
  std::vector<std::uint32_t> rand_slots_;  // ascending GateId: the kRand
                                           // refresh order IS the RNG
                                           // stream order (determinism)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dff_qd_slots_;  // (q, d)
  std::vector<std::uint32_t> pi_slots_;  // primary_inputs() order
  std::vector<std::uint32_t> po_slots_;  // primary_outputs() order

  std::vector<OpRun> runs_;
  std::vector<std::uint32_t> op_out_slots_;
  std::vector<std::uint32_t> op_input_slots_;
  std::size_t level_count_ = 0;
  std::size_t fused_run_count_ = 0;
};

using CompiledDesignPtr = std::shared_ptr<const CompiledDesign>;

/// Compiles a netlist into a shareable plan. The netlist must outlive the
/// returned plan (campaigns keep the design alive for their whole run).
[[nodiscard]] CompiledDesignPtr compile(const netlist::Netlist& netlist);

}  // namespace polaris::sim
