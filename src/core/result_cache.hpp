// Bounded, thread-safe result cache for served requests.
//
// The serve daemon's value proposition is "train once, mask many"; this
// cache adds "compute once, answer many": a repeated audit/mask/score of
// an unchanged design under an unchanged config is O(lookup). The daemon
// computes each 64-bit key from the request alone, before any netlist is
// built: core::config_fingerprint (the request's config for audit, the
// bundle's for mask and score), the request kind and its parameters, and
// the design source - a suite name with the bit pattern of its scale, or
// a .v path with a hash of the file's bytes. The key is exact because a
// suite design is a pure function of (name, scale) and a .v design of
// (path, bytes): equal keys mean equal inputs, so a hit's replayed body is
// indistinguishable from a recomputed one. The trade-off: two scales that
// happen to build the same netlist (des3 at 0.3 and 0.4) keep separate
// entries. Values are opaque encoded response bodies.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace polaris::core {

class ResultCache {
 public:
  /// Bodies are shared immutable buffers: a hit hands out the pointer, so
  /// multi-megabyte replies are never copied under the cache mutex (or at
  /// all - the frame writer reads straight from the shared buffer).
  using Body = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// `capacity` bounds the entry count (FIFO eviction; 0 disables caching).
  explicit ResultCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Returns the cached body (nullptr on miss), recording a hit/miss.
  [[nodiscard]] Body get(std::uint64_t key);

  /// Inserts (or refreshes) an entry, evicting the oldest beyond capacity.
  void put(std::uint64_t key, Body body);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Resident body bytes across all live entries (refresh replaces, evict
  /// subtracts - this is occupancy, not cumulative traffic).
  [[nodiscard]] std::uint64_t bytes() const;

  /// Folds `value` into `key` (FNV-1a step) - the helper request handlers
  /// use to extend a fingerprint with request parameters.
  [[nodiscard]] static std::uint64_t combine(std::uint64_t key,
                                             std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      key = (key ^ ((value >> shift) & 0xFF)) * 1099511628211ULL;
    }
    return key;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Body> entries_;
  std::deque<std::uint64_t> order_;  // insertion order, for FIFO eviction
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t bytes_ = 0;  // resident body bytes, guarded by mutex_
};

}  // namespace polaris::core
