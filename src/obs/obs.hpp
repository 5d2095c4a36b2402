// polaris::obs - process-wide execution telemetry: named counters and
// log-scale latency histograms behind a registry, snapshottable at any
// moment and mergeable across snapshots.
//
// Contract (mirrors `lane_words`): metrics are pure execution-side state.
// Nothing in this registry is ever serialized into bundles, hashed into a
// config or design fingerprint, or allowed to influence a numeric result.
// Turning observability on or off must leave every audit/mask output
// byte-identical; only wall-clock changes.
//
// Naming scheme: `<subsystem>.<metric>` with duration histograms suffixed
// by their unit (`pool.task_us`, `server.drain_us`). Counters count events
// or bytes and carry no suffix (`cache.hits`, `server.frames_in`).
//
// Cost model: counter increments are relaxed fetch_adds on one of a few
// cache-line-padded shards (no CAS loop, no lock, no false sharing between
// concurrently incrementing threads); histogram records are two relaxed
// fetch_adds. Instrumentation sits at shard/request granularity - never
// inside the kernel inner loop.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.hpp"

namespace polaris::obs {

/// Monotonic timestamp in nanoseconds (util/timer.hpp). All obs durations
/// and the tracer share this timebase.
using util::now_ns;

namespace detail {
/// Stable per-thread shard index in [0, kCounterShards): threads are
/// assigned round-robin on first use, so up to kCounterShards concurrently
/// incrementing threads never touch the same cache line.
[[nodiscard]] std::size_t thread_shard() noexcept;
}  // namespace detail

inline constexpr std::size_t kCounterShards = 16;

/// Monotonic event counter with per-thread-sharded relaxed increments.
/// `value()` sums the shards; it is a racy-but-consistent snapshot (every
/// increment that happened-before the call is included).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Wrapping decrement for gauge-style counters (resident bytes):
  /// `value()` sums the shards mod 2^64, so adding the two's complement
  /// of `n` cancels an earlier `add(n)` exactly even when an individual
  /// shard wraps below zero.
  void sub(std::uint64_t n) noexcept { add(~n + 1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kCounterShards> shards_;
};

/// Fixed-bucket log-scale histogram of non-negative integer samples
/// (typically microseconds). Values below 16 get exact buckets; above
/// that, each power of two is split into 4 sub-buckets, so any recorded
/// value lands in a bucket whose width is at most 25% of its lower bound.
/// 256 buckets cover the full uint64 range - recording never saturates.
class Histogram {
 public:
  static constexpr std::size_t kLinearBuckets = 16;
  static constexpr std::size_t kBuckets = 256;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Inclusive lower bound of bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index) noexcept;
  /// Exclusive upper bound (lower bound of the next bucket; saturates at
  /// the top of the range).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Sparse non-zero buckets as (bucket index, count), ascending index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Estimated value at quantile `p` in [0, 1]: exact for samples in the
  /// width-1 buckets below 16, the midpoint of the bucket holding the p-th
  /// sample otherwise (within 12.5% of the true sample for log buckets).
  /// Returns 0 on an empty histogram.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Adds `other`'s samples into this snapshot (histograms with the same
  /// bucket layout merge exactly; merging is associative and commutative).
  void merge(const HistogramSnapshot& other);
  /// Removes `earlier`'s samples (for interval deltas between two
  /// snapshots of the same growing histogram). Saturates at zero.
  void subtract(const HistogramSnapshot& earlier);
};

/// A point-in-time copy of a registry: plain data, safe to ship across
/// threads or encode onto the wire. Names are sorted ascending.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
    const auto* counter = find_counter(name);
    return counter == nullptr ? 0 : counter->value;
  }

  /// Merges `other` into this snapshot (union of names, sums where both
  /// sides have a metric). Associative and commutative.
  void merge(const Snapshot& other);

  /// Removes `earlier`'s samples from this snapshot - the interval delta
  /// between two snapshots of the same growing registry. Counter values
  /// and histogram counts saturate at zero; metrics only `earlier` has are
  /// dropped (they no longer exist in the later registry, which cannot
  /// happen for snapshots of one live registry).
  void subtract(const Snapshot& earlier);

  /// `"counters":{...},"histograms":{...}` - a fragment for embedding in a
  /// larger JSON object (histograms report count/sum/mean/p50/p95/p99).
  [[nodiscard]] std::string json_fragment() const;

  /// Process-level identity for the Prometheus exposition below: rendered
  /// as a `<prefix>build_info{...} 1` info gauge plus
  /// `<prefix>uptime_seconds` when passed to prometheus().
  struct ProcessInfo {
    std::string build_type;
    std::string simd;
    std::uint64_t lane_words = 0;
    double uptime_seconds = 0.0;
  };

  /// Prometheus-style text exposition: counters as `counter` metrics,
  /// histograms as `summary` quantiles, each preceded by `# HELP` and
  /// `# TYPE` lines. Metric names are prefixed and sanitized ('.' and '-'
  /// become '_'). A non-null `info` prepends the build_info/uptime gauges.
  [[nodiscard]] std::string prometheus(std::string_view prefix,
                                       const ProcessInfo* info = nullptr) const;
};

/// Named metric registry. `global()` is the process-wide instance every
/// subsystem records into; local instances exist for tests. Lookup takes a
/// mutex - hot sites cache the returned reference once
/// (`static auto& c = Registry::global().counter("pool.tasks");`).
/// References stay valid for the registry's lifetime (the global registry
/// is immortal).
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  // Node-based maps: grow never invalidates handed-out references.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Wall-clock timestamp formatted as ISO-8601 UTC with milliseconds
/// (`2026-08-07T12:34:56.789Z`). This is the prefix every log() line
/// carries, exposed so tests (and other emitters) can check the format.
[[nodiscard]] std::string wall_clock_iso8601();

/// Wall-clock milliseconds since the Unix epoch (system clock - the only
/// obs timestamp that is NOT on the steady timebase; use for correlating
/// samples with the outside world, never for durations).
[[nodiscard]] std::int64_t wall_clock_ms();

/// Structured, rate-limited stderr log line:
///   `<ISO-8601 ms UTC> polaris[<component>] <message>`
/// A token bucket (burst 20, refill 10/s) drops excess lines and counts
/// them in the `obs.log_suppressed` counter instead of flooding stderr -
/// safe to call from a tight failure loop.
void log(const char* component, const std::string& message);

/// What this process is actually running - build flavor and the kernel the
/// runtime dispatcher selected. Surfaced by `polaris_cli version` and the
/// serve ping/stats replies, so a live daemon can be asked what it runs.
struct RuntimeInfo {
  std::string build_type;     // "release" or "debug" (from NDEBUG)
  std::string simd;           // dispatch result for the default width
  std::uint64_t lane_words;   // sim::kDefaultLaneWords
  bool avx2_supported;        // CPUID says the CPU can
  bool avx2_built;            // this binary carries the AVX2 TU
};
[[nodiscard]] RuntimeInfo runtime_info();

}  // namespace polaris::obs
