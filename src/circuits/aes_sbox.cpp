#include "circuits/aes_sbox.hpp"

#include <span>
#include <vector>

#include "circuits/word.hpp"
#include "util/strings.hpp"

namespace polaris::circuits {

using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

namespace {

std::uint8_t gf_multiply(std::uint8_t a, std::uint8_t b) {
  std::uint8_t product = 0;
  while (b != 0) {
    if (b & 1U) product ^= a;
    const bool carry = (a & 0x80U) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (carry) a ^= 0x1bU;  // x^8 = x^4 + x^3 + x + 1 (mod 0x11b)
    b >>= 1;
  }
  return product;
}

std::uint8_t gf_inverse(std::uint8_t a) {
  if (a == 0) return 0;
  for (unsigned candidate = 1; candidate < 256; ++candidate) {
    if (gf_multiply(a, static_cast<std::uint8_t>(candidate)) == 1) {
      return static_cast<std::uint8_t>(candidate);
    }
  }
  return 0;  // unreachable: GF(2^8) is a field
}

}  // namespace

const std::array<std::uint8_t, 256>& aes_sbox_table() {
  static const std::array<std::uint8_t, 256> table = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned x = 0; x < 256; ++x) {
      const std::uint8_t inv = gf_inverse(static_cast<std::uint8_t>(x));
      std::uint8_t y = 0;
      for (int bit = 0; bit < 8; ++bit) {
        const int parity = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) % 8)) & 1) ^
                           ((inv >> ((bit + 5) % 8)) & 1) ^
                           ((inv >> ((bit + 6) % 8)) & 1) ^
                           ((inv >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
        y = static_cast<std::uint8_t>(y | (parity << bit));
      }
      t[x] = y;
    }
    return t;
  }();
  return table;
}

std::uint8_t ref_aes_sbox(std::uint8_t data, std::uint8_t key) {
  return aes_sbox_table()[data ^ key];
}

Netlist make_aes_sbox_layer(std::size_t boxes) {
  Netlist nl("aes_sbox" + std::to_string(boxes));
  WordBuilder wb(nl);
  const Word data = wb.input("data", 8 * boxes);
  const Word key = wb.input("key", 8 * boxes);
  const auto& table = aes_sbox_table();

  for (std::size_t lane = 0; lane < boxes; ++lane) {
    // AddRoundKey.
    std::array<NetId, 8> in{};
    for (std::size_t bit = 0; bit < 8; ++bit) {
      in[bit] = wb.gate(CellType::kXor,
                        {data.bits[8 * lane + bit], key.bits[8 * lane + bit]});
    }
    std::array<NetId, 8> inv{};
    for (std::size_t bit = 0; bit < 8; ++bit) {
      inv[bit] = wb.gate(CellType::kNot, {in[bit]});
    }
    // Full 8-bit minterm decoder shared across the 8 output OR trees.
    std::vector<NetId> minterm(256);
    for (unsigned m = 0; m < 256; ++m) {
      std::array<NetId, 8> literals{};
      for (std::size_t bit = 0; bit < 8; ++bit) {
        literals[bit] = ((m >> bit) & 1U) != 0 ? in[bit] : inv[bit];
      }
      minterm[m] = nl.add_cell(CellType::kAnd,
                               std::span<const NetId>(literals.data(), 8));
    }
    Word out;
    out.bits.reserve(8);
    for (std::size_t bit = 0; bit < 8; ++bit) {
      std::vector<NetId> terms;
      for (unsigned m = 0; m < 256; ++m) {
        if ((table[m] >> bit) & 1U) terms.push_back(minterm[m]);
      }
      out.bits.push_back(wb.reduce(CellType::kOr, std::move(terms)));
    }
    wb.output(out, util::numbered("s", lane));
  }
  nl.validate();
  return nl;
}

}  // namespace polaris::circuits
