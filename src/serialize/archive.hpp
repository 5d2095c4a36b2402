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
//
// Field lists: Writer and Reader share one vocabulary (the primitives,
// chunk, opt_chunk, tail, u8_enum/u32_enum, seq, nested), so a single
//
//   template <class Io, class Msg> void fields(Io& io, Msg& msg)
//
// states a layout for both directions - on a Writer each call emits the
// field, on a Reader the same call reads into it. Msg is `const T` when
// writing and `T` when reading. Callables are template parameters, so a
// field list compiles to the same straight-line code as a hand-written
// encoder or decoder.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
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

  // --- field-list vocabulary (see the file comment) ------------------------

  /// A chunk holding whatever `body()` writes.
  template <class F>
  void chunk(std::string_view tag, F&& body) {
    begin_chunk(tag);
    body();
    end_chunk();
  }
  /// An optional chunk: written only when `present`; a Reader reads it
  /// only when its tag is next.
  template <class F>
  void opt_chunk(std::string_view tag, bool present, F&& body) {
    if (present) chunk(tag, body);
  }
  /// Append-only fields at the end of a chunk: written only when
  /// `present`; a Reader reads them only when bytes remain in the chunk.
  template <class F>
  void tail(bool present, F&& body) {
    if (present) body();
  }
  /// An enum at u8 or u32 width; a Reader rejects values above `last`.
  template <class E>
  void u8_enum(E value, E /*last*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(value));
  }
  template <class E>
  void u32_enum(E value, E /*last*/, const char* /*what*/) {
    u32(static_cast<std::uint32_t>(value));
  }
  /// A u64 count, then `entry(item)` per item. A Reader checks the count
  /// against the bytes left (`min_entry_bytes` per entry) before it
  /// reserves anything.
  template <class Range, class F>
  void seq(const Range& items, std::size_t /*min_entry_bytes*/, F&& entry) {
    u64(std::size(items));
    for (const auto& item : items) entry(item);
  }
  /// A value with its own codec pair (types built through a validating
  /// constructor): `write(*this, value)` here, `value = read(in)` on a
  /// Reader. An optional is written through its value.
  template <class T, class Write, class Read>
  void nested(const T& value, Write&& write, Read&& /*read*/) {
    write(*this, value);
  }
  template <class T, class Write, class Read>
  void nested(const std::optional<T>& value, Write&& write, Read&& /*read*/) {
    write(*this, *value);
  }

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

  /// Bytes left in the current scope (chunk or archive body).
  [[nodiscard]] std::size_t remaining() const { return scope_end() - pos_; }

  /// Check-before-allocate, the one bounds rule for every count: throws
  /// unless `count` entries of at least `min_entry_bytes` (>= 1) each fit
  /// in the bytes left in the current scope. seq applies it to each count
  /// it reads; a header whose counts precede their entries calls it
  /// directly.
  void check_count(std::uint64_t count, std::size_t min_entry_bytes) const;

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

  // --- field-list vocabulary (see the file comment) ------------------------

  void u8(std::uint8_t& value) { value = u8(); }
  void u32(std::uint32_t& value) { value = u32(); }
  void u64(std::uint64_t& value) { value = u64(); }
  void i32(std::int32_t& value) { value = i32(); }
  void f64(double& value) { value = f64(); }
  void boolean(bool& value) { value = boolean(); }
  void str(std::string& value) { value = str(); }
  void f64_vec(std::vector<double>& values) { values = f64_vec(); }
  void u8_vec(std::vector<std::uint8_t>& values) { values = u8_vec(); }
  void bool_vec(std::vector<bool>& values) { values = bool_vec(); }

  template <class F>
  void chunk(std::string_view tag, F&& body) {
    enter_chunk(tag);
    body();
    exit_chunk();
  }
  template <class F>
  void opt_chunk(std::string_view tag, bool /*present*/, F&& body) {
    if (!try_enter_chunk(tag)) return;
    body();
    exit_chunk();
  }
  template <class F>
  void tail(bool /*present*/, F&& body) {
    if (remaining() > 0) body();
  }
  template <class E>
  void u8_enum(E& value, E last, const char* what) {
    value = static_cast<E>(
        enum_value(u8(), static_cast<std::uint64_t>(last), what));
  }
  template <class E>
  void u32_enum(E& value, E last, const char* what) {
    value = static_cast<E>(
        enum_value(u32(), static_cast<std::uint64_t>(last), what));
  }
  /// Reads a count, checks it (check_count), then fills `items` with one
  /// `entry(item)` call per element.
  template <class T, class F>
  void seq(std::vector<T>& items, std::size_t min_entry_bytes, F&& entry) {
    const std::uint64_t count = u64();
    check_count(count, min_entry_bytes);
    items.clear();
    items.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) entry(items.emplace_back());
  }
  /// The same count rule for types built through a validating
  /// constructor: calls `entry()` once per checked entry.
  template <class F>
  void seq(std::size_t min_entry_bytes, F&& entry) {
    const std::uint64_t count = u64();
    check_count(count, min_entry_bytes);
    for (std::uint64_t i = 0; i < count; ++i) entry();
  }
  template <class T, class Write, class Read>
  void nested(T& value, Write&& /*write*/, Read&& read) {
    value = read(*this);
  }

 private:
  [[nodiscard]] std::size_t scope_end() const;
  void require(std::size_t count, const char* what) const;
  /// `raw` when it is at most `last`; throws "unknown <what>" otherwise.
  [[nodiscard]] std::uint64_t enum_value(std::uint64_t raw, std::uint64_t last,
                                         const char* what) const;
  [[noreturn]] void fail(const std::string& message) const;

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t body_end_ = 0;  // start of the CRC trailer
  std::uint32_t version_ = 0;
  std::vector<std::size_t> chunk_ends_;
};

/// Whole-file read; throws std::runtime_error on I/O failure. (Writes go
/// through util::write_file_atomic, which never leaves a truncated file.)
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace polaris::serialize
