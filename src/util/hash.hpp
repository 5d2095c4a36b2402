// FNV-1a 64: the one hash behind config and design fingerprints, result-
// cache keys, and the bit-identity hashes the benches and goldens print.
// It keys caches and names inputs; it is not a defence against an
// adversary choosing collisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace polaris::util {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a 64 over `size` bytes at `data`, continuing from `hash`.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t hash = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) hash = (hash ^ bytes[i]) * kFnv1aPrime;
  return hash;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t hash = kFnv1aOffset) {
  return fnv1a(bytes.data(), bytes.size(), hash);
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t hash = kFnv1aOffset) {
  return fnv1a(text.data(), text.size(), hash);
}

/// Folds the 8 little-endian bytes of `value` into `hash`: how a request's
/// parameters extend a fingerprint, with the same result on any host.
[[nodiscard]] inline std::uint64_t fnv1a_u64(std::uint64_t hash,
                                             std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  return fnv1a(bytes, sizeof bytes, hash);
}

}  // namespace polaris::util
