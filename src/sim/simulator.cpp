#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace polaris::sim {

Simulator::Simulator(const netlist::Netlist& netlist, std::uint64_t seed,
                     std::size_t lane_words)
    : Simulator(compile(netlist), seed, lane_words) {}

Simulator::Simulator(CompiledDesignPtr compiled, std::uint64_t seed,
                     std::size_t lane_words)
    : compiled_(std::move(compiled)), lane_words_(lane_words) {
  if (!valid_lane_words(lane_words)) {
    throw std::invalid_argument("Simulator: lane_words must be 1 or 4");
  }
  rngs_.reserve(lane_words_);
  for (std::size_t w = 0; w < lane_words_; ++w) {
    rngs_.emplace_back(word_seed(seed, w));
  }
  values_.assign(compiled_->slot_count() * lane_words_, 0);
  toggles_.assign(compiled_->slot_count() * lane_words_, 0);
  dff_state_.assign(compiled_->dff_count() * lane_words_, 0);
}

std::uint64_t Simulator::word_seed(std::uint64_t seed,
                                   std::size_t word) noexcept {
  if (word == 0) return seed;  // 1-word simulators keep the legacy stream
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(word);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Simulator::set_input(std::size_t pi_index, std::uint64_t word) {
  values_[static_cast<std::size_t>(compiled_->pi_slots_.at(pi_index)) *
          lane_words_] = word;
}

void Simulator::set_input_word(std::size_t pi_index, std::size_t word_index,
                               std::uint64_t word) {
  values_[static_cast<std::size_t>(compiled_->pi_slots_.at(pi_index)) *
              lane_words_ +
          word_index] = word;
}

void Simulator::set_inputs_random() {
  // Input-ascending draws per stream, matching the single-word order.
  for (const std::uint32_t slot : compiled_->pi_slots_) {
    const std::size_t base = static_cast<std::size_t>(slot) * lane_words_;
    for (std::size_t w = 0; w < lane_words_; ++w) {
      values_[base + w] = rngs_[w]();
    }
  }
}

void Simulator::eval(bool record_toggles) {
  refresh_sources(nullptr);
  compiled_->eval_comb(values_.data(), toggles_.data(), lane_words_,
                       record_toggles ? detail::ToggleMode::kRecord
                                      : detail::ToggleMode::kSkip,
                       nullptr);
}

void Simulator::eval_counting(const ToggleCounter& counter) {
  refresh_sources(&counter);
  compiled_->eval_comb(values_.data(), toggles_.data(), lane_words_,
                       detail::ToggleMode::kCount, &counter);
}

void Simulator::refresh_sources(const ToggleCounter* counter) {
  // Source refresh ahead of the compiled combinational wave. Toggles are
  // recorded as each word is written (the kernel's write-time rule, one
  // word at a time);
  // primary-input slots were staged by set_input* outside eval(), so
  // their toggles stay 0 (PI pad power is excluded by the tech library
  // anyway). kRand refresh draws slot-ascending per word stream - the
  // same per-stream order the reference simulator's source sweep uses.
  const CompiledDesign& plan = *compiled_;
  const std::size_t K = lane_words_;
  const auto write = [&](std::uint32_t slot, std::size_t w,
                         std::uint64_t value) {
    const std::size_t offset = static_cast<std::size_t>(slot) * K + w;
    const std::uint64_t toggle = values_[offset] ^ value;
    toggles_[offset] = toggle;
    values_[offset] = value;
    if (counter != nullptr && counter->counted[slot] != 0) {
      counter->counts[slot].add(toggle, counter->fixed_masks[w],
                                counter->active_masks[w]);
    }
  };

  for (const std::uint32_t slot : plan.const0_slots_) {
    for (std::size_t w = 0; w < K; ++w) write(slot, w, 0);
  }
  for (const std::uint32_t slot : plan.const1_slots_) {
    for (std::size_t w = 0; w < K; ++w) write(slot, w, ~0ULL);
  }
  for (const std::uint32_t slot : plan.rand_slots_) {
    for (std::size_t w = 0; w < K; ++w) write(slot, w, rngs_[w]());
  }
  for (std::size_t i = 0; i < plan.dff_qd_slots_.size(); ++i) {
    for (std::size_t w = 0; w < K; ++w) {
      write(plan.dff_qd_slots_[i].first, w, dff_state_[i * K + w]);
    }
  }
}

void Simulator::latch() {
  const std::size_t K = lane_words_;
  for (std::size_t i = 0; i < compiled_->dff_qd_slots_.size(); ++i) {
    const std::size_t d_base =
        static_cast<std::size_t>(compiled_->dff_qd_slots_[i].second) * K;
    for (std::size_t w = 0; w < K; ++w) {
      dff_state_[i * K + w] = values_[d_base + w];
    }
  }
}

void Simulator::reset(std::uint64_t seed) {
  reseed(seed);
  std::fill(values_.begin(), values_.end(), 0);
  std::fill(toggles_.begin(), toggles_.end(), 0);
  std::fill(dff_state_.begin(), dff_state_.end(), 0);
}

void Simulator::reseed(std::uint64_t seed) {
  for (std::size_t w = 0; w < lane_words_; ++w) {
    rngs_[w] = util::Xoshiro256(word_seed(seed, w));
  }
}

void Simulator::reseed_word(std::size_t word_index, std::uint64_t seed) {
  rngs_[word_index] = util::Xoshiro256(seed);
}

std::vector<bool> Simulator::eval_single(const std::vector<bool>& bits) {
  const auto& slots = compiled_->pi_slots_;
  if (bits.size() != slots.size()) {
    throw std::invalid_argument("eval_single: input size mismatch");
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint64_t word = bits[i] ? ~0ULL : 0ULL;  // broadcast, lane 0
    const std::size_t base = static_cast<std::size_t>(slots[i]) * lane_words_;
    for (std::size_t w = 0; w < lane_words_; ++w) values_[base + w] = word;
  }
  eval();
  std::vector<bool> out;
  out.reserve(compiled_->po_slots_.size());
  for (const std::uint32_t slot : compiled_->po_slots_) {
    out.push_back(
        (values_[static_cast<std::size_t>(slot) * lane_words_] & 1ULL) != 0);
  }
  return out;
}

}  // namespace polaris::sim
