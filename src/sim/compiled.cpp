#include "sim/compiled.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/compiled_kernels.hpp"

namespace polaris::sim {

using netlist::CellType;
using netlist::GateId;
using netlist::NetId;

namespace {

constexpr std::uint32_t kUnassigned = 0xffffffffU;

void check_arity_or_throw(CellType type, std::size_t fan_in) {
  const netlist::Arity arity = netlist::arity_of(type);
  if (fan_in < arity.min || (arity.max != 0 && fan_in > arity.max)) {
    throw std::invalid_argument(
        "CompiledDesign: cell " + std::string(netlist::to_string(type)) +
        " has invalid fan-in " + std::to_string(fan_in));
  }
}

}  // namespace

CompiledDesign::OpKernel CompiledDesign::select_kernel(CellType type,
                                                       std::size_t fan_in) {
  using K = CompiledDesign::OpKernel;
  switch (type) {
    case CellType::kBuf: return K::kBuf;
    case CellType::kNot: return K::kNot;
    case CellType::kMux: return K::kMux;
    case CellType::kAnd: return fan_in == 2 ? K::kAnd2 : K::kAndN;
    case CellType::kOr: return fan_in == 2 ? K::kOr2 : K::kOrN;
    case CellType::kNand: return fan_in == 2 ? K::kNand2 : K::kNandN;
    case CellType::kNor: return fan_in == 2 ? K::kNor2 : K::kNorN;
    case CellType::kXor: return fan_in == 2 ? K::kXor2 : K::kXorN;
    case CellType::kXnor: return fan_in == 2 ? K::kXnor2 : K::kXnorN;
    default:
      throw std::invalid_argument(
          "CompiledDesign: cell kind not evaluable by the combinational "
          "wave: " +
          std::string(netlist::to_string(type)));
  }
}

CompiledDesign::CompiledDesign(const netlist::Netlist& netlist)
    : netlist_(&netlist) {
  const auto order = netlist.topological_order();  // throws on comb cycles

  slot_of_net_.assign(netlist.net_count(), kUnassigned);
  std::uint32_t next_slot = 0;
  const auto assign = [&](NetId net) {
    if (slot_of_net_[net] == kUnassigned) slot_of_net_[net] = next_slot++;
    return slot_of_net_[net];
  };

  // Slot order: sources first (ascending GateId - for kRand cells this IS
  // the per-cycle RNG draw order, so it must match the reference
  // simulator's source sweep), then DFF q outputs, then combinational
  // outputs in schedule order, then any undriven leftover nets.
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const auto& gate = netlist.gate(g);
    switch (gate.type) {
      case CellType::kInput:
        assign(gate.output);
        break;
      case CellType::kConst0:
        const0_slots_.push_back(assign(gate.output));
        break;
      case CellType::kConst1:
        const1_slots_.push_back(assign(gate.output));
        break;
      case CellType::kRand:
        rand_slots_.push_back(assign(gate.output));
        break;
      default:
        break;
    }
  }
  std::vector<std::pair<std::uint32_t, NetId>> dff_q_dnet;  // d resolved below
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const auto& gate = netlist.gate(g);
    if (gate.type != CellType::kDff) continue;
    check_arity_or_throw(gate.type, gate.inputs.size());
    dff_q_dnet.emplace_back(assign(gate.output), gate.inputs[0]);
  }

  // Levelize the combinational gates (validating each one), then batch
  // each level by (cell type, fan-in). The map key order - and ascending
  // GateId within each bucket - makes the emitted plan a pure function of
  // the netlist, independent of topological_order()'s pop order.
  std::vector<std::uint32_t> level(netlist.gate_count(), 0);
  std::vector<std::vector<GateId>> by_level;
  for (const GateId g : order) {
    const auto& gate = netlist.gate(g);
    if (!netlist::is_combinational(gate.type)) continue;
    check_arity_or_throw(gate.type, gate.inputs.size());
    (void)select_kernel(gate.type, gate.inputs.size());  // kind evaluable?
    std::uint32_t lvl = 0;
    for (const NetId in : gate.inputs) {
      const GateId driver = netlist.net(in).driver;
      if (netlist::is_combinational(netlist.gate(driver).type)) {
        lvl = std::max(lvl, level[driver] + 1);
      }
    }
    level[g] = lvl;
    if (by_level.size() <= lvl) by_level.resize(lvl + 1);
    by_level[lvl].push_back(g);
  }
  level_count_ = by_level.size();

  for (auto& gates_in_level : by_level) {
    std::map<std::pair<CellType, std::uint32_t>, std::vector<GateId>> buckets;
    std::sort(gates_in_level.begin(), gates_in_level.end());
    for (const GateId g : gates_in_level) {
      const auto& gate = netlist.gate(g);
      buckets[{gate.type, static_cast<std::uint32_t>(gate.inputs.size())}]
          .push_back(g);
    }
    for (const auto& [key, members] : buckets) {
      OpRun run;
      run.kernel = select_kernel(key.first, key.second);
      run.fan_in = key.second;
      run.op_begin = static_cast<std::uint32_t>(op_out_slots_.size());
      run.op_count = static_cast<std::uint32_t>(members.size());
      run.input_base = static_cast<std::uint32_t>(op_input_slots_.size());
      for (const GateId g : members) {
        const auto& gate = netlist.gate(g);
        // Operands live strictly below this level (or are sources/DFF q),
        // so their slots are already assigned.
        for (const NetId in : gate.inputs) {
          op_input_slots_.push_back(slot_of_net_[in]);
        }
        op_out_slots_.push_back(assign(gate.output));
      }
      runs_.push_back(run);
    }
  }

  // Prelude fusion: a kBuf/kNot run whose outputs are all consumed by the
  // run that immediately follows it is folded into that run as a prelude.
  // The folded ops still execute first and still write their value/toggle
  // slots, inside the consumer's dispatch - the per-slot write order is
  // exactly the unfused order, so the result is bit-identical and the
  // fusion is purely a dispatch-count optimization. Runs that already
  // received a prelude are not folded further (no chaining).
  {
    std::vector<std::uint32_t> consumer_count(next_slot, 0);
    for (const std::uint32_t s : op_input_slots_) ++consumer_count[s];
    std::vector<std::uint32_t> next_count(next_slot, 0);
    std::vector<std::uint32_t> touched;
    std::vector<OpRun> kept;
    kept.reserve(runs_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const OpRun& run = runs_[i];
      const bool candidate =
          (run.kernel == OpKernel::kBuf || run.kernel == OpKernel::kNot) &&
          run.prelude_op_count == 0 && run.op_count > 0 &&
          i + 1 < runs_.size();
      bool fold = false;
      if (candidate) {
        const OpRun& next = runs_[i + 1];
        const std::uint32_t* next_in = op_input_slots_.data() + next.input_base;
        const std::size_t next_inputs =
            static_cast<std::size_t>(next.op_count) * next.fan_in;
        for (std::size_t t = 0; t < next_inputs; ++t) {
          if (next_count[next_in[t]]++ == 0) touched.push_back(next_in[t]);
        }
        fold = true;
        for (std::uint32_t o = 0; o < run.op_count; ++o) {
          const std::uint32_t s = op_out_slots_[run.op_begin + o];
          if (consumer_count[s] == 0 || next_count[s] != consumer_count[s]) {
            fold = false;
            break;
          }
        }
        for (const std::uint32_t s : touched) next_count[s] = 0;
        touched.clear();
      }
      if (fold) {
        OpRun& next = runs_[i + 1];
        next.prelude_op_begin = run.op_begin;
        next.prelude_op_count = run.op_count;
        next.prelude_input_base = run.input_base;
        next.prelude_invert = run.kernel == OpKernel::kNot;
        ++fused_run_count_;
      } else {
        kept.push_back(run);
      }
    }
    runs_ = std::move(kept);
  }

  // Undriven (construction-leftover) nets still deserve stable slots so
  // value(net) stays total.
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    (void)assign(n);
  }

  dff_qd_slots_.reserve(dff_q_dnet.size());
  for (const auto& [q_slot, d_net] : dff_q_dnet) {
    dff_qd_slots_.emplace_back(q_slot, slot_of_net_[d_net]);
  }
  out_slot_of_gate_.resize(netlist.gate_count());
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    out_slot_of_gate_[g] = slot_of_net_[netlist.gate(g).output];
  }
  pi_slots_.reserve(netlist.primary_inputs().size());
  for (const NetId net : netlist.primary_inputs()) {
    pi_slots_.push_back(slot_of_net_[net]);
  }
  po_slots_.reserve(netlist.primary_outputs().size());
  for (const NetId net : netlist.primary_outputs()) {
    po_slots_.push_back(slot_of_net_[net]);
  }
}

void CompiledDesign::eval_comb(std::uint64_t* values, std::uint64_t* toggles,
                               std::size_t lane_words, detail::ToggleMode mode,
                               const ToggleCounter* counter) const {
  detail::resolve_eval_fn(lane_words, mode)(*this, values, toggles, counter);
}

namespace detail {

namespace {

// The portable counting entries. The library targets baseline x86-64,
// where __builtin_popcountll compiles to a multi-op bit-twiddling
// sequence, and a counting eval takes two popcounts per written word.
// target_clones emits a second clone of each entry (kernel body inlined by
// `flatten`) compiled with the hardware popcnt instruction, and the
// loader's ifunc resolver picks it on CPUs that have it: the same integer
// counts, no per-call dispatch cost. The AVX2 unit needs no clone: it
// counts with vector instructions. ThreadSanitizer builds keep only the
// default clone: the instrumented ifunc resolver runs during relocation,
// before the TSan runtime is up, and crashes the binary at start-up.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define POLARIS_POPCNT_CLONES \
  __attribute__((target_clones("popcnt", "default"), flatten))
#else
#define POLARIS_POPCNT_CLONES
#endif

POLARIS_POPCNT_CLONES
void count_eval_1(const CompiledDesign& plan, std::uint64_t* values,
                  std::uint64_t* toggles, const ToggleCounter* counter) {
  KernelAccess::eval<U64Block<1>, ToggleMode::kCount>(plan, values, toggles,
                                                      counter);
}

POLARIS_POPCNT_CLONES
void count_eval_4(const CompiledDesign& plan, std::uint64_t* values,
                  std::uint64_t* toggles, const ToggleCounter* counter) {
  KernelAccess::eval<U64Block<4>, ToggleMode::kCount>(plan, values, toggles,
                                                      counter);
}

#undef POLARIS_POPCNT_CLONES

template <std::size_t W>
EvalFn portable_entry(ToggleMode mode) noexcept {
  switch (mode) {
    case ToggleMode::kSkip:
      return &KernelAccess::eval<U64Block<W>, ToggleMode::kSkip>;
    case ToggleMode::kRecord:
      return &KernelAccess::eval<U64Block<W>, ToggleMode::kRecord>;
    case ToggleMode::kCount:
      return W == 1 ? &count_eval_1 : &count_eval_4;
  }
  return nullptr;
}

}  // namespace

// Portable kernel table: the shared template (compiled_kernels.hpp) over
// unrolled-uint64 blocks, one instantiation per valid width (1 and 4
// words) and toggle mode. The AVX2 entries live in compiled_avx2.cpp, the
// only TU built with -mavx2.
EvalFn portable_kernel(std::size_t lane_words, ToggleMode mode) noexcept {
  return lane_words == 1 ? portable_entry<1>(mode) : portable_entry<4>(mode);
}

}  // namespace detail

CompiledDesignPtr compile(const netlist::Netlist& netlist) {
  return std::make_shared<const CompiledDesign>(netlist);
}

}  // namespace polaris::sim
