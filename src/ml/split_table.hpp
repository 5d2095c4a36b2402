// Outcome keys: what a tree ensemble can tell apart about a row.
//
// A row reaches an ensemble's trees only through the tests `x[f] <= t` at
// their internal nodes. SplitTable lists the distinct (f, t) pairs of a
// fitted ensemble; a row's outcome key holds one bit per pair,
// !(x[f] <= t), packed into 64-bit words. Two rows with equal keys take the
// same branch at every node: they reach the same leaf of every tree, so
// their margins and probabilities are equal bit for bit, and TreeSHAP
// (which reads a row only to pick each node's hot branch) adds the same
// terms in the same order for both. Any pure function of those results can
// therefore be computed once per distinct key (KeyMemo) instead of once
// per row, with no change in any bit (DESIGN.md "Inference, explanation
// and Verilog emission").
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ml/tree.hpp"

namespace polaris::ml {

class SplitTable {
 public:
  explicit SplitTable(const TreeEnsemble& ensemble);

  /// Distinct (feature, threshold) pairs. Thresholds are told apart by
  /// their bits, so two that compare equal (+0.0 and -0.0) get two
  /// conditions with always-equal outcomes.
  [[nodiscard]] std::size_t size() const { return features_.size(); }
  /// 64-bit words per key (at least one).
  [[nodiscard]] std::size_t key_words() const { return words_; }
  /// True when keying a row costs no more than walking it: at most as
  /// many conditions as the trees' depths sum to. DESIGN.md times both
  /// sides for each model kind.
  [[nodiscard]] bool cheaper_than_walk() const { return cheaper_than_walk_; }

  /// Writes x's outcome key into `key` (key_words() words). A NaN feature
  /// fails every `<=`, so it sets the bit, as it sends the walk right.
  void key(std::span<const double> x, std::span<std::uint64_t> key) const;

 private:
  std::vector<std::int32_t> features_;
  std::vector<double> thresholds_;
  std::size_t words_ = 1;
  bool cheaper_than_walk_ = false;
};

/// One value per distinct outcome key. Not thread-safe; each lane keeps
/// its own.
template <class Value>
class KeyMemo {
 public:
  /// The value stored under `key`; on the first call with this key,
  /// `compute()` supplies it.
  template <class Compute>
  const Value& get(std::span<const std::uint64_t> key, Compute&& compute) {
    probe_.assign(key.begin(), key.end());
    if (const auto it = values_.find(probe_); it != values_.end()) {
      return it->second;
    }
    return values_.emplace(probe_, compute()).first->second;
  }

  /// Distinct keys seen so far.
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  struct Hash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (const std::uint64_t word : key) {
        h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 31;
      }
      return static_cast<std::size_t>(h);
    }
  };

  std::vector<std::uint64_t> probe_;  // the lookup key, reused
  std::unordered_map<std::vector<std::uint64_t>, Value, Hash> values_;
};

}  // namespace polaris::ml
