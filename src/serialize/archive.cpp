#include "serialize/archive.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace polaris::serialize {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'P', 'L', 'B', 'A'};
constexpr std::array<std::uint8_t, 4> kTrailerTag = {'C', 'R', 'C', '0'};
constexpr std::size_t kHeaderSize = kMagic.size() + 4;      // magic + version
constexpr std::size_t kTrailerSize = kTrailerTag.size() + 4;  // tag + crc
constexpr std::size_t kChunkPrefixSize = 4 + 8;             // tag + u64 length

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- Writer -----------------------------------------------------------------

Writer::Writer() {
  buffer_.insert(buffer_.end(), kMagic.begin(), kMagic.end());
  buffer_.resize(buffer_.size() + 4);
  put_u32(buffer_, buffer_.size() - 4, kFormatVersion);
}

void Writer::begin_chunk(std::string_view tag) {
  if (tag.size() != 4) {
    throw std::logic_error("archive: chunk tag must be 4 characters");
  }
  buffer_.insert(buffer_.end(), tag.begin(), tag.end());
  open_chunks_.push_back(buffer_.size());
  buffer_.resize(buffer_.size() + 8);  // length placeholder
}

void Writer::end_chunk() {
  if (open_chunks_.empty()) {
    throw std::logic_error("archive: end_chunk without begin_chunk");
  }
  const std::size_t at = open_chunks_.back();
  open_chunks_.pop_back();
  put_u64(buffer_, at, buffer_.size() - (at + 8));
}

void Writer::u8(std::uint8_t value) { buffer_.push_back(value); }

void Writer::u32(std::uint32_t value) {
  buffer_.resize(buffer_.size() + 4);
  put_u32(buffer_, buffer_.size() - 4, value);
}

void Writer::u64(std::uint64_t value) {
  buffer_.resize(buffer_.size() + 8);
  put_u64(buffer_, buffer_.size() - 8, value);
}

void Writer::i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }

void Writer::f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

void Writer::varint(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(value));
}

void Writer::str(std::string_view value) {
  u64(value.size());
  buffer_.insert(buffer_.end(), value.begin(), value.end());
}

void Writer::f64_vec(std::span<const double> values) {
  u64(values.size());
  for (const double v : values) f64(v);
}

void Writer::i32_vec(std::span<const int> values) {
  u64(values.size());
  for (const int v : values) i32(v);
}

void Writer::u8_vec(std::span<const std::uint8_t> values) {
  u64(values.size());
  buffer_.insert(buffer_.end(), values.begin(), values.end());
}

void Writer::bool_vec(const std::vector<bool>& values) {
  u64(values.size());
  for (const bool v : values) u8(v ? 1 : 0);
}

std::vector<std::uint8_t> Writer::finish() {
  if (!open_chunks_.empty()) {
    throw std::logic_error("archive: finish with an open chunk");
  }
  const std::uint32_t crc = crc32(buffer_);
  buffer_.insert(buffer_.end(), kTrailerTag.begin(), kTrailerTag.end());
  buffer_.resize(buffer_.size() + 4);
  put_u32(buffer_, buffer_.size() - 4, crc);
  return std::move(buffer_);
}

// --- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<std::uint8_t> bytes) : buffer_(std::move(bytes)) {
  if (buffer_.size() < kHeaderSize + kTrailerSize) {
    fail("truncated archive (" + std::to_string(buffer_.size()) + " bytes)");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (buffer_[i] != kMagic[i]) fail("bad magic (not a POLARIS archive)");
  }
  version_ = static_cast<std::uint32_t>(buffer_[4]) |
             static_cast<std::uint32_t>(buffer_[5]) << 8 |
             static_cast<std::uint32_t>(buffer_[6]) << 16 |
             static_cast<std::uint32_t>(buffer_[7]) << 24;
  if (version_ > kFormatVersion) {
    fail("format version " + std::to_string(version_) +
         " is newer than this build supports (" +
         std::to_string(kFormatVersion) + "); upgrade polaris");
  }
  body_end_ = buffer_.size() - kTrailerSize;
  for (std::size_t i = 0; i < kTrailerTag.size(); ++i) {
    if (buffer_[body_end_ + i] != kTrailerTag[i]) {
      fail("missing CRC trailer (truncated archive?)");
    }
  }
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(buffer_[body_end_ + 4 +
                                                 static_cast<std::size_t>(i)])
              << (8 * i);
  }
  const std::uint32_t actual =
      crc32(std::span(buffer_.data(), body_end_));
  if (stored != actual) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%08x != %08x", actual, stored);
    fail(std::string("CRC mismatch (") + hex + "): corrupt archive");
  }
  pos_ = kHeaderSize;
}

std::size_t Reader::scope_end() const {
  return chunk_ends_.empty() ? body_end_ : chunk_ends_.back();
}

void Reader::require(std::size_t count, const char* what) const {
  // Compared against the remaining span (never pos_ + count, which a
  // corrupt 64-bit length could wrap around).
  if (count > scope_end() - pos_) {
    fail(std::string("unexpected end of ") +
         (chunk_ends_.empty() ? "archive" : "chunk") + " reading " + what);
  }
}

void Reader::fail(const std::string& message) const {
  throw std::runtime_error("polaris archive: " + message);
}

std::string Reader::peek_tag() const {
  if (pos_ == scope_end()) return {};
  if (pos_ + kChunkPrefixSize > scope_end()) return {};
  return {reinterpret_cast<const char*>(buffer_.data() + pos_), 4};
}

void Reader::enter_chunk(std::string_view tag) {
  const std::string found = peek_tag();
  if (found != tag) {
    fail("expected chunk '" + std::string(tag) + "', found '" + found + "'");
  }
  pos_ += 4;
  const std::uint64_t length = u64();
  if (length > scope_end() - pos_) {
    fail("chunk '" + std::string(tag) + "' overruns its container");
  }
  chunk_ends_.push_back(pos_ + length);
}

bool Reader::try_enter_chunk(std::string_view tag) {
  if (peek_tag() != tag) return false;
  enter_chunk(tag);
  return true;
}

void Reader::exit_chunk() {
  if (chunk_ends_.empty()) {
    throw std::logic_error("archive: exit_chunk without enter_chunk");
  }
  pos_ = chunk_ends_.back();
  chunk_ends_.pop_back();
}

void Reader::skip_chunk() {
  const std::string tag = peek_tag();
  if (tag.empty()) fail("skip_chunk at end of scope");
  enter_chunk(tag);
  exit_chunk();
}

std::uint8_t Reader::u8() {
  require(1, "u8");
  return buffer_[pos_++];
}

std::uint32_t Reader::u32() {
  require(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buffer_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  require(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buffer_[pos_++]) << (8 * i);
  }
  return v;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t Reader::varint() {
  std::uint64_t value = 0;
  for (unsigned shift = 0;; shift += 7) {
    require(1, "varint");
    const std::uint8_t byte = buffer_[pos_++];
    // Nine bytes carry 63 bits, so the 10th may only hold the top bit.
    if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

std::string Reader::str() {
  const std::uint64_t length = u64();
  require(length, "string");
  std::string value(reinterpret_cast<const char*>(buffer_.data() + pos_),
                    length);
  pos_ += length;
  return value;
}

std::vector<double> Reader::f64_vec() {
  const std::uint64_t count = u64();
  if (count > (scope_end() - pos_) / 8) fail("oversized f64 vector");
  std::vector<double> values(count);
  for (auto& v : values) v = f64();
  return values;
}

std::vector<int> Reader::i32_vec() {
  const std::uint64_t count = u64();
  if (count > (scope_end() - pos_) / 4) fail("oversized i32 vector");
  std::vector<int> values(count);
  for (auto& v : values) v = i32();
  return values;
}

std::vector<std::uint8_t> Reader::u8_vec() {
  const std::uint64_t count = u64();
  require(count, "u8 vector");
  std::vector<std::uint8_t> values(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                   buffer_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
  pos_ += count;
  return values;
}

std::vector<bool> Reader::bool_vec() {
  const std::uint64_t count = u64();
  require(count, "bool vector");
  std::vector<bool> values(count);
  for (std::uint64_t i = 0; i < count; ++i) values[i] = buffer_[pos_++] != 0;
  return values;
}

// --- file I/O ---------------------------------------------------------------

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("polaris archive: cannot open '" + path +
                             "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const int close_result = std::fclose(file);  // unconditionally: no FD leak
  if (written != bytes.size() || close_result != 0) {
    throw std::runtime_error("polaris archive: short write to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("polaris archive: cannot open '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t block[65536];
  std::size_t got = 0;
  while ((got = std::fread(block, 1, sizeof(block), file)) > 0) {
    bytes.insert(bytes.end(), block, block + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    throw std::runtime_error("polaris archive: read error on '" + path + "'");
  }
  return bytes;
}

}  // namespace polaris::serialize
