// Order statistics behind every number the benchmark reports.
//
//  * median: the mean of the two middle samples for an even count (the
//    value Python's statistics.median gives);
//  * percentile: nearest rank - the smallest sample with at least p of the
//    samples at or below it;
//  * tails: a tail percentile is only reported when at least kTailBeyond
//    samples lie strictly above it, so no tail ever rests on one sample;
//  * quartiles: the same cut points as Python's
//    statistics.quantiles(values, n=4) (the "exclusive" method), which is
//    how run-to-run spread is judged;
//  * self time: a span's duration minus the part of it that its children
//    cover, counting overlapping children (from other threads) once.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must leave strictly above it.
inline constexpr std::size_t kTailBeyond = 10;

/// Zero-based index of the nearest-rank p-th percentile in a sorted sample
/// of size n >= 1: ceil(p * n) - 1, clamped to [0, n - 1]. The epsilon
/// keeps p * n that lands on an integer from rounding up a rank.
[[nodiscard]] inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("rank_index: empty sample");
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  if (rank <= 1.0) return 0;
  return std::min(n - 1, static_cast<std::size_t>(rank) - 1);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - 1 - rank_index(n, p);
}

/// Smallest sample count whose p-th percentile leaves kTailBeyond samples
/// beyond it (1000 for p99, 200 for p95, 20 for p50).
[[nodiscard]] inline std::size_t min_samples_for_tail(double p) {
  std::size_t n = kTailBeyond + 1;
  while (samples_beyond(n, p) < kTailBeyond) ++n;
  return n;
}

[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  const std::size_t index = rank_index(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

/// A tail percentile, refused (std::runtime_error naming `what`) when the
/// sample leaves fewer than kTailBeyond values beyond it.
[[nodiscard]] inline double tail(const std::vector<double>& values, double p,
                                 const std::string& what) {
  if (values.empty() || samples_beyond(values.size(), p) < kTailBeyond) {
    throw std::runtime_error(
        what + ": " + std::to_string(values.size()) + " samples leave fewer than " +
        std::to_string(kTailBeyond) + " beyond the percentile (need " +
        std::to_string(min_samples_for_tail(p)) + ")");
  }
  return percentile(values, p);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// statistics.quantiles(values, n=4): the three quartile cut points, with
/// Python's clamping (and so extrapolation) for very small samples.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  const std::size_t m = ld + 1;
  std::array<double, 3> cuts{};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return cuts;
}

/// Interquartile range as a share of the median (the steadiness measure).
[[nodiscard]] inline double relative_iqr(const std::vector<double>& values) {
  const auto q = quartiles(values);
  const double mid = median(values);
  return mid == 0.0 ? 0.0 : (q[2] - q[0]) / mid;
}

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Duration of `parent` not covered by any child interval. Children are
/// clipped to the parent, and overlapping children - concurrent work on
/// other threads - are counted once (union length).
[[nodiscard]] inline std::int64_t self_time(Interval parent,
                                            std::vector<Interval> children) {
  const std::int64_t total = std::max<std::int64_t>(0, parent.end - parent.start);
  for (auto& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.start; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const auto& child : children) {
    if (open && child.start <= run_end) {
      run_end = std::max(run_end, child.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = child.start;
    run_end = child.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return total - covered;
}

}  // namespace perfbench
