#include "circuits/word.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

namespace polaris::circuits {

using netlist::CellType;
using netlist::NetId;

NetId WordBuilder::zero() {
  if (zero_ == netlist::kNoNet) zero_ = nl_.add_const(false);
  return zero_;
}

NetId WordBuilder::one() {
  if (one_ == netlist::kNoNet) one_ = nl_.add_const(true);
  return one_;
}

Word WordBuilder::input(const std::string& prefix, std::size_t width) {
  Word word;
  word.bits.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    word.bits.push_back(nl_.add_input(prefix + "_" + std::to_string(i)));
  }
  return word;
}

void WordBuilder::output(const Word& word, const std::string& prefix) {
  for (std::size_t i = 0; i < word.width(); ++i) {
    nl_.mark_output(word.bits[i], prefix + "_" + std::to_string(i));
  }
}

Word WordBuilder::constant(std::uint64_t value, std::size_t width) {
  Word word;
  word.bits.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    word.bits.push_back(((value >> i) & 1ULL) != 0 ? one() : zero());
  }
  return word;
}

Word WordBuilder::register_word(const std::string& prefix, std::size_t width) {
  Word q;
  q.bits.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    q.bits.push_back(nl_.add_net(prefix + "_q" + std::to_string(i)));
  }
  return q;
}

void WordBuilder::connect_register(const Word& q, const Word& next) {
  if (q.width() != next.width()) {
    throw std::invalid_argument("connect_register: width mismatch");
  }
  for (std::size_t i = 0; i < q.width(); ++i) {
    nl_.add_cell_driving(CellType::kDff, std::array{next.bits[i]}, q.bits[i]);
  }
}

NetId WordBuilder::gate(CellType type, std::initializer_list<NetId> in) {
  return nl_.add_cell(type, in);
}

Word WordBuilder::map2(CellType type, const Word& a, const Word& b) {
  if (a.width() != b.width()) throw std::invalid_argument("map2: width mismatch");
  Word out;
  out.bits.reserve(a.width());
  for (std::size_t i = 0; i < a.width(); ++i) {
    out.bits.push_back(gate(type, {a.bits[i], b.bits[i]}));
  }
  return out;
}

Word WordBuilder::invert(const Word& a) {
  Word out;
  out.bits.reserve(a.width());
  for (const NetId bit : a.bits) out.bits.push_back(gate(CellType::kNot, {bit}));
  return out;
}

Word WordBuilder::mux(NetId sel, const Word& a, const Word& b) {
  if (a.width() != b.width()) throw std::invalid_argument("mux: width mismatch");
  Word out;
  out.bits.reserve(a.width());
  for (std::size_t i = 0; i < a.width(); ++i) {
    out.bits.push_back(gate(CellType::kMux, {sel, a.bits[i], b.bits[i]}));
  }
  return out;
}

Word WordBuilder::mux_bits(const Word& sel, const Word& a, const Word& b) {
  if (sel.width() != a.width() || a.width() != b.width()) {
    throw std::invalid_argument("mux_bits: width mismatch");
  }
  Word out;
  out.bits.reserve(a.width());
  for (std::size_t i = 0; i < a.width(); ++i) {
    out.bits.push_back(gate(CellType::kMux, {sel.bits[i], a.bits[i], b.bits[i]}));
  }
  return out;
}

NetId WordBuilder::reduce(CellType type, std::vector<NetId> bits,
                          std::size_t max_fan_in) {
  if (bits.empty()) throw std::invalid_argument("reduce: empty operand list");
  while (bits.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i < bits.size(); i += max_fan_in) {
      const std::size_t chunk = std::min(max_fan_in, bits.size() - i);
      if (chunk == 1) {
        next.push_back(bits[i]);
      } else {
        next.push_back(nl_.add_cell(
            type, std::span<const NetId>(bits.data() + i, chunk)));
      }
    }
    bits = std::move(next);
  }
  return bits[0];
}

NetId WordBuilder::equal(const Word& a, const Word& b) {
  const Word xnor = map2(CellType::kXnor, a, b);
  return reduce_and(xnor);
}

WordBuilder::AddResult WordBuilder::add(const Word& a, const Word& b,
                                        NetId carry_in) {
  if (a.width() != b.width()) throw std::invalid_argument("add: width mismatch");
  Word sum;
  sum.bits.reserve(a.width());
  NetId carry = carry_in;
  for (std::size_t i = 0; i < a.width(); ++i) {
    const NetId x = a.bits[i];
    const NetId y = b.bits[i];
    const NetId x_xor_y = gate(CellType::kXor, {x, y});
    if (carry == netlist::kNoNet) {  // half adder for the first stage
      sum.bits.push_back(x_xor_y);
      carry = gate(CellType::kAnd, {x, y});
    } else {
      sum.bits.push_back(gate(CellType::kXor, {x_xor_y, carry}));
      const NetId g1 = gate(CellType::kAnd, {x, y});
      const NetId g2 = gate(CellType::kAnd, {x_xor_y, carry});
      carry = gate(CellType::kOr, {g1, g2});
    }
  }
  return {std::move(sum), carry};
}

WordBuilder::AddResult WordBuilder::sub(const Word& a, const Word& b) {
  return add(a, invert(b), one());
}

WordBuilder::AddResult WordBuilder::add_sub(NetId sub_flag, const Word& a,
                                            const Word& b) {
  // b XOR sub_flag per bit, carry-in = sub_flag: a + b or a + ~b + 1.
  Word b_cond;
  b_cond.bits.reserve(b.width());
  for (const NetId bit : b.bits) {
    b_cond.bits.push_back(gate(CellType::kXor, {bit, sub_flag}));
  }
  return add(a, b_cond, sub_flag);
}

NetId WordBuilder::greater_equal(const Word& a, const Word& b) {
  return sub(a, b).carry;  // no borrow <=> a >= b
}

WordBuilder::AddResult WordBuilder::increment(const Word& a) {
  // Ripple of half adders with carry-in 1.
  Word sum;
  sum.bits.reserve(a.width());
  NetId carry = one();
  for (const NetId bit : a.bits) {
    sum.bits.push_back(gate(CellType::kXor, {bit, carry}));
    carry = gate(CellType::kAnd, {bit, carry});
  }
  return {std::move(sum), carry};
}

Word WordBuilder::zext(const Word& a, std::size_t width) {
  if (width < a.width()) throw std::invalid_argument("zext: narrowing");
  Word out = a;
  while (out.bits.size() < width) out.bits.push_back(zero());
  return out;
}

Word WordBuilder::slice(const Word& a, std::size_t lo, std::size_t width) const {
  if (lo + width > a.width()) throw std::invalid_argument("slice: out of range");
  Word out;
  out.bits.assign(a.bits.begin() + static_cast<std::ptrdiff_t>(lo),
                  a.bits.begin() + static_cast<std::ptrdiff_t>(lo + width));
  return out;
}

Word WordBuilder::shift_left(const Word& a, std::size_t amount) {
  Word out;
  out.bits.reserve(a.width());
  for (std::size_t i = 0; i < a.width(); ++i) {
    out.bits.push_back(i < amount ? zero() : a.bits[i - amount]);
  }
  return out;
}

Word WordBuilder::shift_right(const Word& a, std::size_t amount,
                              bool arithmetic) {
  Word out;
  out.bits.reserve(a.width());
  const NetId fill = arithmetic ? a.msb() : zero();
  for (std::size_t i = 0; i < a.width(); ++i) {
    const std::size_t src = i + amount;
    out.bits.push_back(src < a.width() ? a.bits[src] : fill);
  }
  return out;
}

}  // namespace polaris::circuits
