#include "circuits/md5.hpp"

#include <cmath>
#include <stdexcept>

#include "circuits/word.hpp"
#include "util/strings.hpp"

namespace polaris::circuits {

using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

namespace {

constexpr std::array<int, 64> kShift = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

/// T[i] = floor(|sin(i+1)| * 2^32) - the canonical MD5 constants. Computed
/// once; correctness is pinned by the openssl known-answer tests.
const std::array<std::uint32_t, 64>& sine_table() {
  static const std::array<std::uint32_t, 64> table = [] {
    std::array<std::uint32_t, 64> t{};
    for (std::size_t i = 0; i < 64; ++i) {
      t[i] = static_cast<std::uint32_t>(
          std::floor(std::fabs(std::sin(static_cast<double>(i + 1))) *
                     4294967296.0));
    }
    return t;
  }();
  return table;
}

std::size_t message_index(std::size_t step) {
  if (step < 16) return step;
  if (step < 32) return (5 * step + 1) % 16;
  if (step < 48) return (3 * step + 5) % 16;
  return (7 * step) % 16;
}

constexpr std::uint32_t kInitA = 0x67452301U;
constexpr std::uint32_t kInitB = 0xefcdab89U;
constexpr std::uint32_t kInitC = 0x98badcfeU;
constexpr std::uint32_t kInitD = 0x10325476U;

}  // namespace

std::array<std::uint32_t, 4> ref_md5_block(const std::array<std::uint32_t, 16>& m,
                                           std::size_t steps) {
  if (steps == 0 || steps > 64) {
    throw std::invalid_argument("ref_md5_block: steps must be in [1,64]");
  }
  const auto& t = sine_table();
  std::uint32_t a = kInitA, b = kInitB, c = kInitC, d = kInitD;
  for (std::size_t i = 0; i < steps; ++i) {
    std::uint32_t f = 0;
    if (i < 16) f = (b & c) | (~b & d);
    else if (i < 32) f = (d & b) | (~d & c);
    else if (i < 48) f = b ^ c ^ d;
    else f = c ^ (b | ~d);
    const std::uint32_t sum = a + f + m[message_index(i)] + t[i];
    const int s = kShift[i];
    const std::uint32_t rotated = (sum << s) | (sum >> (32 - s));
    const std::uint32_t next_b = b + rotated;
    a = d;
    d = c;
    c = b;
    b = next_b;
  }
  return {a + kInitA, b + kInitB, c + kInitC, d + kInitD};
}

std::array<std::uint8_t, 16> ref_md5_digest(const std::vector<std::uint8_t>& message) {
  if (message.size() > 55) {
    throw std::invalid_argument("ref_md5_digest: single-block only (<= 55 bytes)");
  }
  std::array<std::uint8_t, 64> block{};
  for (std::size_t i = 0; i < message.size(); ++i) block[i] = message[i];
  block[message.size()] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(message.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  std::array<std::uint32_t, 16> words{};
  for (std::size_t w = 0; w < 16; ++w) {
    words[w] = static_cast<std::uint32_t>(block[4 * w]) |
               (static_cast<std::uint32_t>(block[4 * w + 1]) << 8) |
               (static_cast<std::uint32_t>(block[4 * w + 2]) << 16) |
               (static_cast<std::uint32_t>(block[4 * w + 3]) << 24);
  }
  const auto regs = ref_md5_block(words);
  std::array<std::uint8_t, 16> digest{};
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t byte = 0; byte < 4; ++byte) {
      digest[4 * r + byte] = static_cast<std::uint8_t>(regs[r] >> (8 * byte));
    }
  }
  return digest;
}

Netlist make_md5(std::size_t steps) {
  if (steps == 0 || steps > 64) {
    throw std::invalid_argument("make_md5: steps must be in [1,64]");
  }
  Netlist nl(steps == 64 ? "md5" : "md5_s" + std::to_string(steps));
  WordBuilder wb(nl);

  std::array<Word, 16> m;
  for (std::size_t w = 0; w < 16; ++w) {
    m[w] = wb.input(util::numbered("m", w), 32);
  }

  const auto rotate_left = [&](const Word& word, int s) {
    Word out;
    out.bits.resize(32);
    for (std::size_t j = 0; j < 32; ++j) {
      out.bits[j] = word.bits[(j + 32 - static_cast<std::size_t>(s)) % 32];
    }
    return out;
  };

  const auto& t = sine_table();
  Word a = wb.constant(kInitA, 32);
  Word b = wb.constant(kInitB, 32);
  Word c = wb.constant(kInitC, 32);
  Word d = wb.constant(kInitD, 32);

  for (std::size_t i = 0; i < steps; ++i) {
    Word f;
    if (i < 16) {
      // (b & c) | (~b & d) is a 2:1 mux with b as select.
      f.bits.reserve(32);
      for (std::size_t j = 0; j < 32; ++j) {
        f.bits.push_back(
            wb.gate(CellType::kMux, {b.bits[j], d.bits[j], c.bits[j]}));
      }
    } else if (i < 32) {
      f.bits.reserve(32);
      for (std::size_t j = 0; j < 32; ++j) {
        f.bits.push_back(
            wb.gate(CellType::kMux, {d.bits[j], c.bits[j], b.bits[j]}));
      }
    } else if (i < 48) {
      f.bits.reserve(32);
      for (std::size_t j = 0; j < 32; ++j) {
        const NetId bc = wb.gate(CellType::kXor, {b.bits[j], c.bits[j]});
        f.bits.push_back(wb.gate(CellType::kXor, {bc, d.bits[j]}));
      }
    } else {
      f.bits.reserve(32);
      for (std::size_t j = 0; j < 32; ++j) {
        const NetId nd = wb.gate(CellType::kNot, {d.bits[j]});
        const NetId b_or_nd = wb.gate(CellType::kOr, {b.bits[j], nd});
        f.bits.push_back(wb.gate(CellType::kXor, {c.bits[j], b_or_nd}));
      }
    }

    Word sum = wb.add(a, f).sum;
    sum = wb.add(sum, m[message_index(i)]).sum;
    sum = wb.add(sum, wb.constant(t[i], 32)).sum;
    const Word rotated = rotate_left(sum, kShift[i]);
    const Word next_b = wb.add(b, rotated).sum;
    a = d;
    d = c;
    c = b;
    b = next_b;
  }

  wb.output(wb.add(a, wb.constant(kInitA, 32)).sum, "dig_a");
  wb.output(wb.add(b, wb.constant(kInitB, 32)).sum, "dig_b");
  wb.output(wb.add(c, wb.constant(kInitC, 32)).sum, "dig_c");
  wb.output(wb.add(d, wb.constant(kInitD, 32)).sum, "dig_d");
  nl.validate();
  return nl;
}

}  // namespace polaris::circuits
