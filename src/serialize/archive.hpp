// Versioned, endian-safe, tagged-chunk binary archive - the on-disk seam
// for every trained POLARIS artifact (model bundles today; campaign caches
// and cross-host shard results are designed to reuse the same container).
//
// Layout:
//   magic   "PLBA" (4 bytes)
//   version u32 LE (kFormatVersion)
//   chunks  repeated { tag: 4 bytes, length: u64 LE, payload }
//   trailer "CRC0" (4 bytes) + u32 LE CRC-32 over everything before it
//
// Chunks nest (a chunk payload may itself be a chunk sequence), so readers
// can skip whole unknown sections by tag. All multi-byte values are
// little-endian regardless of host; doubles travel as IEEE-754 bit patterns
// (bit-exact round-trip, including NaN payloads).
//
// Failure policy: Reader validates magic, version, and CRC up front and
// bounds-checks every read against the enclosing chunk, so truncated,
// corrupt, or future-version input always raises std::runtime_error -
// never UB, never a silently wrong artifact.
//
// Compatibility policy (see DESIGN.md "Bundle persistence"): appending
// fields at the END of an existing chunk is backward-compatible (old
// readers ignore the remainder on exit_chunk()); any other layout change
// bumps kFormatVersion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace polaris::serialize {

/// Bumped on any non-append layout change. Readers reject newer versions.
inline constexpr std::uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the trailer checksum.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

class Writer {
 public:
  Writer();  // emits magic + format version

  /// Opens a chunk (tag must be exactly 4 characters). Chunks nest.
  void begin_chunk(std::string_view tag);
  /// Closes the innermost open chunk, patching its length prefix.
  void end_chunk();

  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value);
  void f64(double value);
  /// Unsigned LEB128: 7 bits per byte, low group first, high bit set on
  /// every byte but the last. 1 byte below 128, at most 10 for 2^64-1.
  void varint(std::uint64_t value);
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(std::string_view value);
  void f64_vec(std::span<const double> values);
  void i32_vec(std::span<const int> values);
  void u8_vec(std::span<const std::uint8_t> values);
  void bool_vec(const std::vector<bool>& values);

  /// Bytes written so far (header + complete chunks; no trailer). Useful
  /// for fingerprinting a serialized section without finishing the archive.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buffer_; }

  /// Appends the CRC trailer and returns the finished archive. All chunks
  /// must be closed; the Writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buffer_;
  std::vector<std::size_t> open_chunks_;  // offsets of length prefixes
};

class Reader {
 public:
  /// Takes ownership of the raw archive and validates magic, format
  /// version, and CRC trailer immediately. Throws std::runtime_error on
  /// any mismatch (truncation, corruption, future version).
  explicit Reader(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint32_t version() const { return version_; }

  /// Tag of the next chunk in the current scope ("" when the scope is
  /// exhausted). Does not advance.
  [[nodiscard]] std::string peek_tag() const;
  /// Enters the next chunk, which must carry `tag` (throws otherwise).
  void enter_chunk(std::string_view tag);
  /// Enters the next chunk iff it carries `tag`; returns false otherwise.
  [[nodiscard]] bool try_enter_chunk(std::string_view tag);
  /// Leaves the innermost chunk, skipping any unread remainder (how old
  /// readers tolerate fields appended by newer writers).
  void exit_chunk();
  /// Skips the next chunk in the current scope entirely.
  void skip_chunk();

  /// Bytes left in the current scope (chunk or archive body). Lets
  /// artifact readers apply the check-before-allocate policy to their own
  /// length fields, as the built-in vector readers do.
  [[nodiscard]] std::size_t remaining() const { return scope_end() - pos_; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32();
  [[nodiscard]] double f64();
  /// Reads a Writer::varint. Throws on truncation and on an encoding that
  /// overflows 64 bits (a 10th byte above 1, which also rules out an 11th).
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<int> i32_vec();
  [[nodiscard]] std::vector<std::uint8_t> u8_vec();
  [[nodiscard]] std::vector<bool> bool_vec();

 private:
  [[nodiscard]] std::size_t scope_end() const;
  void require(std::size_t count, const char* what) const;
  [[noreturn]] void fail(const std::string& message) const;

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t body_end_ = 0;  // start of the CRC trailer
  std::uint32_t version_ = 0;
  std::vector<std::size_t> chunk_ends_;
};

/// Whole-file helpers; throw std::runtime_error on I/O failure.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace polaris::serialize
