// Shared pieces of the benchmark binary: run options, the result record
// every workload fills, the paper configuration, output checks, set-up
// timing, a frame-level client connection, and the registry and memory
// probes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "obs/obs.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "spans.hpp"
#include "tvla/tvla.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // traced run: where the span JSON goes
};

/// Compute lanes every workload stays within (the host has 4 cores; the
/// fourth is left to the clients, the OS and the other processes).
inline constexpr std::size_t kLanes = 3;

/// What one run measured and whether its outputs were right.
class Report {
 public:
  /// A metric for the result line. Units follow BENCHMARK.json.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A number for the detail line (sample counts, cold first passes...).
  void detail(const std::string& name, double value);
  /// Counts one operation; a failed one is logged to stderr with `what`.
  void op(bool ok, const std::string& what = {});

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  /// `{"detail": {...}}` - printed before the result line.
  [[nodiscard]] std::string detail_line() const;
  /// `{"correct":...,"attempted":...,"failed":...,"metrics":{...}}`.
  [[nodiscard]] std::string result_line() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The paper configuration shared by training and auditing: Sec. V-A knobs
/// (L = 7, 100 iterations, AdaBoost with 300 rounds at learning rate 0.01,
/// theta_r = 0.70), 8192 TVLA traces, Msize 60 for Algorithm 1 on the
/// small training designs, kLanes threads. `tvla_seed` drives the TVLA
/// stimulus only; Algorithm 1's gate draws keep the default seed, so every
/// seed labels the same number of masked variants.
[[nodiscard]] polaris::core::PolarisConfig paper_config(std::uint64_t tvla_seed);

/// Bitwise report equality: every t-value's bit pattern and every measured
/// flag (so -0.0 vs 0.0 or a NaN payload would count as a difference).
[[nodiscard]] bool same_report(const polaris::tvla::LeakageReport& a,
                               const polaris::tvla::LeakageReport& b);
[[nodiscard]] bool same_reports(std::span<const polaris::tvla::LeakageReport> a,
                                std::span<const polaris::tvla::LeakageReport> b);
[[nodiscard]] bool same_bits(std::span<const double> a, std::span<const double> b);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Milliseconds since `start_ns` (steady clock).
[[nodiscard]] inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) / 1e6;
}

/// Times repeated cold set-ups of a workload's state. The first set-up
/// pays the process's first-touch costs and is kept apart; the workload
/// spreads the others over its run, so their median samples the host over
/// the whole run rather than one moment of it.
template <class T>
class SetupSampler {
 public:
  explicit SetupSampler(std::function<T()> make) : make_(std::move(make)) {}

  /// One timed set-up. Only construction is timed: the caller keeps the
  /// result or lets it go, and its teardown runs after the clock stopped.
  [[nodiscard]] T sample() {
    const std::int64_t start = steady_ns();
    T made = make_();
    const double seconds = static_cast<double>(steady_ns() - start) / 1e9;
    if (first_s_ < 0.0) {
      first_s_ = seconds;
    } else {
      samples_.push_back(seconds);
    }
    return made;
  }

  [[nodiscard]] double first_s() const { return first_s_; }
  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

 private:
  std::function<T()> make_;
  double first_s_ = -1.0;
  std::vector<double> samples_;
};

/// Registry delta since a baseline snapshot.
class RegistryDelta {
 public:
  RegistryDelta() : before_(polaris::obs::Registry::global().snapshot()) {}
  /// Snapshot now minus the baseline.
  [[nodiscard]] polaris::obs::Snapshot take() const;

 private:
  polaris::obs::Snapshot before_;
};

/// A client socket to a daemon or worker endpoint, closed on destruction.
class Connection {
 public:
  explicit Connection(const polaris::server::net::Endpoint& endpoint);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One request frame out, one response frame back.
  [[nodiscard]] polaris::server::Response roundtrip(
      std::span<const std::uint8_t> payload);

 private:
  int fd_;
};

/// Histogram percentile of a delta snapshot (0 when absent or empty).
[[nodiscard]] double histogram_percentile(const polaris::obs::Snapshot& snapshot,
                                          const char* name, double p);

/// `value` as a JSON number with all 17 significant digits ("null" when
/// not finite).
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
