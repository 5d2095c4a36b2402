// polaris::obs metrics sampler: a background thread that snapshots a
// registry periodically, so a live daemon can answer "what happened in the
// last interval" - not just "what happened since process start". Interval
// rates (requests/s, traces/s, cache hit ratio, interval p50/p95) fall out
// of Snapshot::subtract between consecutive samples, exactly - no separate
// rate estimator.
//
// The obs contract holds: nothing here is serialized into bundles or
// fingerprints, and sampling on/off leaves every audit/mask output
// byte-identical (the sampler only ever *reads* the registry).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace polaris::obs {

/// Background sampler: snapshots a Registry every `interval_ms`, optionally
/// appending one JSON line per interval (the delta against the previous
/// sample) to `metrics_file` for offline trajectory scraping. start()/stop()
/// are idempotent; stop() joins promptly (the sleep is a condvar wait, not a
/// blind sleep).
class Sampler {
 public:
  struct Options {
    std::size_t interval_ms = 1000;
    std::string metrics_file;  // empty = no file output
  };

  Sampler(Registry& registry, Options options);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();

  /// Snapshots taken over the lifetime (monotonic).
  [[nodiscard]] std::uint64_t samples() const { return samples_.load(); }
  [[nodiscard]] std::size_t interval_ms() const { return options_.interval_ms; }

 private:
  void run();

  Registry& registry_;
  Options options_;
  std::atomic<std::uint64_t> samples_{0};
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace polaris::obs
