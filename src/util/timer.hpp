// Wall-clock timing for the runtime columns of Table II and the ablation
// benches, and the monotonic clock the telemetry and the client share.
#pragma once

#include <chrono>
#include <cstdint>

namespace polaris::util {

/// Monotonic timestamp in nanoseconds (steady clock): the obs timebase and
/// the client's request deadlines.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace polaris::util
