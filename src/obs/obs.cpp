#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "sim/simd.hpp"
#include "util/strings.hpp"

namespace polaris::obs {

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace detail

// --- Histogram bucket layout ---------------------------------------------
//
// [0, 16)           : one bucket per value (index == value)
// [2^m, 2^(m+1))    : 4 sub-buckets of width 2^(m-2), for m in [4, 63]
//
// 16 + 60*4 = 256 buckets total; index never exceeds kBuckets - 1.

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kLinearBuckets) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);  // >= 4 here
  const std::size_t sub = static_cast<std::size_t>(value >> (msb - 2)) & 3;
  return kLinearBuckets + static_cast<std::size_t>(msb - 4) * 4 + sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t index) noexcept {
  if (index < kLinearBuckets) return index;
  const std::size_t log_index = index - kLinearBuckets;
  const int msb = 4 + static_cast<int>(log_index / 4);
  const std::uint64_t sub = log_index % 4;
  return (std::uint64_t{1} << msb) + sub * (std::uint64_t{1} << (msb - 2));
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index + 1 >= kBuckets) return ~std::uint64_t{0};
  return bucket_lower(index + 1);
}

// --- Snapshots ------------------------------------------------------------

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the target sample, 1-based; ceil so p=0.5 over 2 samples picks
  // the first and p=1.0 always picks the last.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [index, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen >= rank) {
      const double lower =
          static_cast<double>(Histogram::bucket_lower(index));
      // The first kLinearBuckets buckets have width 1, so the lower bound
      // IS the recorded value - reporting the midpoint there would shift
      // every small sample by +0.5 (p50 of all-zeros must be 0, not 0.5).
      if (index < Histogram::kLinearBuckets) return lower;
      const double upper =
          static_cast<double>(Histogram::bucket_upper(index));
      return lower + (upper - lower) / 2.0;
    }
  }
  return 0.0;  // unreachable when count matches the buckets
}

namespace {

// Merges the sparse (index, count) lists of `into` and `from` (both
// ascending); `scale` of -1 subtracts instead of adding.
void combine_buckets(
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& into,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& from,
    bool subtract) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(into.size() + from.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < into.size() || b < from.size()) {
    if (b >= from.size() ||
        (a < into.size() && into[a].first < from[b].first)) {
      merged.push_back(into[a++]);
    } else if (a >= into.size() || from[b].first < into[a].first) {
      const auto [index, value] = from[b++];
      if (!subtract) merged.emplace_back(index, value);
      // Subtracting a bucket this snapshot never saw: saturate to zero by
      // dropping it (only happens if the snapshots are unrelated).
    } else {
      const std::uint64_t ours = into[a].second;
      const std::uint64_t theirs = from[b].second;
      const std::uint64_t value =
          subtract ? (ours > theirs ? ours - theirs : 0) : ours + theirs;
      if (value > 0) merged.emplace_back(into[a].first, value);
      ++a;
      ++b;
    }
  }
  into = std::move(merged);
}

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  combine_buckets(buckets, other.buckets, /*subtract=*/false);
}

void HistogramSnapshot::subtract(const HistogramSnapshot& earlier) {
  count = count > earlier.count ? count - earlier.count : 0;
  sum = sum > earlier.sum ? sum - earlier.sum : 0;
  combine_buckets(buckets, earlier.buckets, /*subtract=*/true);
}

const CounterSnapshot* Snapshot::find_counter(std::string_view name) const {
  for (const auto& counter : counters)
    if (counter.name == name) return &counter;
  return nullptr;
}

const HistogramSnapshot* Snapshot::find_histogram(
    std::string_view name) const {
  for (const auto& histogram : histograms)
    if (histogram.name == name) return &histogram;
  return nullptr;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& theirs : other.counters) {
    bool found = false;
    for (auto& ours : counters) {
      if (ours.name == theirs.name) {
        ours.value += theirs.value;
        found = true;
        break;
      }
    }
    if (!found) counters.push_back(theirs);
  }
  for (const auto& theirs : other.histograms) {
    bool found = false;
    for (auto& ours : histograms) {
      if (ours.name == theirs.name) {
        ours.merge(theirs);
        found = true;
        break;
      }
    }
    if (!found) histograms.push_back(theirs);
  }
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(histograms.begin(), histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

void Snapshot::subtract(const Snapshot& earlier) {
  for (auto& ours : counters) {
    if (const auto* theirs = earlier.find_counter(ours.name)) {
      ours.value = ours.value > theirs->value ? ours.value - theirs->value : 0;
    }
  }
  for (auto& ours : histograms) {
    if (const auto* theirs = earlier.find_histogram(ours.name)) {
      ours.subtract(*theirs);
    }
  }
}

namespace {

using util::appendf;

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

/// `# HELP` text for the exposition: specific strings for the well-known
/// metrics, a generic-but-honest fallback for the rest (every metric gets
/// a HELP line - scrapers treat its absence as a malformed family).
const char* metric_help(std::string_view name, bool histogram) {
  if (name == "cache.hits") return "Result-cache hits.";
  if (name == "cache.misses") return "Result-cache misses.";
  if (name == "cache.bytes") return "Resident reply-body bytes in the result cache.";
  if (name == "server.frames_in") return "Request frames received.";
  if (name == "server.frames_out") return "Response frames sent.";
  if (name == "server.slow_requests") return "Requests slower than 1 s.";
  if (name == "sched.campaigns") return "Campaigns submitted to the shard scheduler.";
  if (name == "sched.shards") return "Shards enqueued on the shard scheduler.";
  if (name == "tvla.campaigns") return "TVLA campaigns constructed.";
  if (name == "tvla.traces") return "Traces budgeted across all campaigns.";
  if (name == "tvla.traces_run") return "Traces actually simulated (lane-block granularity).";
  if (name == "pool.jobs") return "parallel_for jobs submitted to the shared pool.";
  if (name == "obs.log_suppressed") return "Rate-limited log lines dropped by the token bucket.";
  if (name == "server.audit_us") return "Audit request service time, microseconds.";
  if (name == "sched.shard_us") return "Per-shard execution time, microseconds.";
  if (name == "pool.queue_depth") return "Concurrent jobs resident in the pool at submit.";
  return histogram ? "polaris execution histogram (see obs.hpp naming scheme)."
                   : "polaris execution counter (see obs.hpp naming scheme).";
}

}  // namespace

std::string Snapshot::json_fragment() const {
  std::string out = "\"counters\":{";
  bool first = true;
  for (const auto& counter : counters) {
    appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",",
            counter.name.c_str(), counter.value);
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& histogram : histograms) {
    appendf(out,
            "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"mean\":%.1f,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
            first ? "" : ",", histogram.name.c_str(), histogram.count,
            histogram.sum, histogram.mean(), histogram.percentile(0.50),
            histogram.percentile(0.95), histogram.percentile(0.99));
    first = false;
  }
  out += '}';
  return out;
}

std::string Snapshot::prometheus(std::string_view prefix,
                                 const ProcessInfo* info) const {
  std::string out;
  if (info != nullptr) {
    const std::string build_info = std::string(prefix) + "build_info";
    appendf(out,
            "# HELP %s Build flavor and the SIMD kernel this process runs.\n"
            "# TYPE %s gauge\n",
            build_info.c_str(), build_info.c_str());
    appendf(out, "%s{build=\"%s\",simd=\"%s\",lane_words=\"%" PRIu64 "\"} 1\n",
            build_info.c_str(), info->build_type.c_str(), info->simd.c_str(),
            info->lane_words);
    const std::string uptime = std::string(prefix) + "uptime_seconds";
    appendf(out,
            "# HELP %s Seconds since the daemon started.\n"
            "# TYPE %s gauge\n%s %.3f\n",
            uptime.c_str(), uptime.c_str(), uptime.c_str(),
            info->uptime_seconds);
  }
  for (const auto& counter : counters) {
    const std::string name =
        std::string(prefix) + sanitize_metric_name(counter.name);
    appendf(out, "# HELP %s %s\n", name.c_str(),
            metric_help(counter.name, /*histogram=*/false));
    appendf(out, "# TYPE %s counter\n%s %" PRIu64 "\n", name.c_str(),
            name.c_str(), counter.value);
  }
  for (const auto& histogram : histograms) {
    const std::string name =
        std::string(prefix) + sanitize_metric_name(histogram.name);
    appendf(out, "# HELP %s %s\n", name.c_str(),
            metric_help(histogram.name, /*histogram=*/true));
    appendf(out, "# TYPE %s summary\n", name.c_str());
    for (const double q : {0.5, 0.95, 0.99}) {
      appendf(out, "%s{quantile=\"%g\"} %.1f\n", name.c_str(), q,
              histogram.percentile(q));
    }
    appendf(out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", name.c_str(),
            histogram.sum, name.c_str(), histogram.count);
  }
  return out;
}

// --- Registry -------------------------------------------------------------

Registry& Registry::global() {
  // Leaked on purpose: worker threads may record during static
  // destruction of other objects; an immortal registry has no
  // destruction-order hazards.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    snapshot.counters.push_back({name, counter->value()});
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.sum = histogram->sum();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t bucket = histogram->bucket_count(i);
      if (bucket == 0) continue;
      hs.count += bucket;
      hs.buckets.emplace_back(static_cast<std::uint32_t>(i), bucket);
    }
    snapshot.histograms.push_back(std::move(hs));
  }
  return snapshot;
}

// --- Structured log -------------------------------------------------------

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string wall_clock_iso8601() {
  const std::int64_t ms = wall_clock_ms();
  const std::time_t seconds = static_cast<std::time_t>(ms / 1000);
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  char buffer[96];  // room for any int in every field, so never truncated
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", utc.tm_year + 1900,
                utc.tm_mon + 1, utc.tm_mday, utc.tm_hour, utc.tm_min,
                utc.tm_sec, static_cast<int>(ms % 1000));
  return buffer;
}

void log(const char* component, const std::string& message) {
  constexpr double kBurst = 20.0;
  constexpr double kRefillPerSec = 10.0;
  static std::mutex mutex;
  static double tokens = kBurst;
  static std::int64_t last_ns = 0;

  bool emit = false;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const std::int64_t now = now_ns();
    if (last_ns != 0) {
      tokens = std::min(
          kBurst,
          tokens + static_cast<double>(now - last_ns) * 1e-9 * kRefillPerSec);
    }
    last_ns = now;
    if (tokens >= 1.0) {
      tokens -= 1.0;
      emit = true;
    }
  }
  if (emit) {
    // Wall-clock prefix (the only wall-clock in obs): daemon stderr lines
    // must be correlatable with client-side timestamps across machines.
    std::fprintf(stderr, "%s polaris[%s] %s\n", wall_clock_iso8601().c_str(),
                 component, message.c_str());
  } else {
    static auto& suppressed =
        Registry::global().counter("obs.log_suppressed");
    suppressed.add();
  }
}

// --- Runtime info ---------------------------------------------------------

RuntimeInfo runtime_info() {
  RuntimeInfo info;
#ifdef NDEBUG
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
  info.lane_words = sim::kDefaultLaneWords;
  info.simd = sim::simd_name(info.lane_words);
  info.avx2_supported = sim::avx2_supported();
  info.avx2_built = sim::avx2_built();
  return info;
}

}  // namespace polaris::obs
