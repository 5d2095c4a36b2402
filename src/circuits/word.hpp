// Word-level structural building blocks shared by every circuit generator.
//
// A Word is an LSB-first vector of nets. WordBuilder wraps a netlist with
// cached constant cells and emits the standard arithmetic idioms (ripple
// carry, borrow-select, reduction trees, barrel shifts) that the benchmark
// generators are assembled from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace polaris::circuits {

struct Word {
  std::vector<netlist::NetId> bits;  // LSB first

  [[nodiscard]] std::size_t width() const { return bits.size(); }
  [[nodiscard]] netlist::NetId msb() const { return bits.back(); }
  [[nodiscard]] netlist::NetId operator[](std::size_t i) const { return bits[i]; }
};

class WordBuilder {
 public:
  explicit WordBuilder(netlist::Netlist& netlist) : nl_(netlist) {}

  [[nodiscard]] netlist::Netlist& netlist() { return nl_; }

  // --- sources -------------------------------------------------------------
  [[nodiscard]] netlist::NetId zero();
  [[nodiscard]] netlist::NetId one();
  [[nodiscard]] Word input(const std::string& prefix, std::size_t width);
  void output(const Word& word, const std::string& prefix);
  [[nodiscard]] Word constant(std::uint64_t value, std::size_t width);

  // --- registers (DFF words with feedback support) --------------------------
  /// Creates `width` undriven q nets usable immediately in logic; call
  /// connect_register() once the next-state word exists.
  [[nodiscard]] Word register_word(const std::string& prefix, std::size_t width);
  void connect_register(const Word& q, const Word& next);

  // --- bitwise -------------------------------------------------------------
  [[nodiscard]] netlist::NetId gate(netlist::CellType type,
                                    std::initializer_list<netlist::NetId> in);
  [[nodiscard]] Word map2(netlist::CellType type, const Word& a, const Word& b);
  [[nodiscard]] Word invert(const Word& a);
  /// sel ? b : a, per bit (single select line).
  [[nodiscard]] Word mux(netlist::NetId sel, const Word& a, const Word& b);
  /// sel[i] ? b[i] : a[i] - per-bit selects (byte-lane merge and similar).
  [[nodiscard]] Word mux_bits(const Word& sel, const Word& a, const Word& b);

  // --- reductions ----------------------------------------------------------
  [[nodiscard]] netlist::NetId reduce(netlist::CellType type,
                                      std::vector<netlist::NetId> bits,
                                      std::size_t max_fan_in = 8);
  [[nodiscard]] netlist::NetId reduce_and(const Word& a) {
    return reduce(netlist::CellType::kAnd, a.bits);
  }
  [[nodiscard]] netlist::NetId equal(const Word& a, const Word& b);

  // --- arithmetic ----------------------------------------------------------
  struct AddResult {
    Word sum;
    netlist::NetId carry;
  };
  /// a + b (+ carry_in); widths must match.
  [[nodiscard]] AddResult add(const Word& a, const Word& b,
                              netlist::NetId carry_in = netlist::kNoNet);
  /// a - b; `carry` is the NOT-borrow (1 iff a >= b).
  [[nodiscard]] AddResult sub(const Word& a, const Word& b);
  /// sub_flag ? a - b : a + b.
  [[nodiscard]] AddResult add_sub(netlist::NetId sub_flag, const Word& a,
                                  const Word& b);
  /// Unsigned a >= b.
  [[nodiscard]] netlist::NetId greater_equal(const Word& a, const Word& b);
  /// a + 1.
  [[nodiscard]] AddResult increment(const Word& a);

  // --- wiring (free) ---------------------------------------------------------
  [[nodiscard]] Word zext(const Word& a, std::size_t width);
  [[nodiscard]] Word slice(const Word& a, std::size_t lo, std::size_t width) const;
  /// Logical shift left by a constant (zero fill).
  [[nodiscard]] Word shift_left(const Word& a, std::size_t amount);
  /// Logical / arithmetic shift right by a constant.
  [[nodiscard]] Word shift_right(const Word& a, std::size_t amount,
                                 bool arithmetic = false);

 private:
  netlist::Netlist& nl_;
  netlist::NetId zero_ = netlist::kNoNet;
  netlist::NetId one_ = netlist::kNoNet;
};

}  // namespace polaris::circuits
