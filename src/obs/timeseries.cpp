#include "obs/timeseries.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace polaris::obs {

namespace {

/// One periodic sample: a full registry snapshot plus when it was taken
/// (wall clock for correlation, steady clock for exact interval widths).
struct TimePoint {
  std::int64_t wall_ms = 0;  // system clock, ms since epoch
  std::int64_t mono_ns = 0;  // obs::now_ns() timebase
  Snapshot snapshot;
};

/// Appends one `{"wall_ms":...,"interval_ms":...,"counters":{...},...}`
/// line to `path`: the interval DELTA, so a scraper reads rates without
/// keeping state. `previous` is null for the first sample.
void append_metrics_line(const std::string& path, std::size_t interval_ms,
                         const TimePoint& current, const TimePoint* previous) {
  if (path.empty()) return;
  Snapshot delta = current.snapshot;
  auto interval = static_cast<std::int64_t>(interval_ms);
  if (previous != nullptr) {
    delta.subtract(previous->snapshot);
    interval = (current.mono_ns - previous->mono_ns) / 1000000;
  }
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    static auto& errors = Registry::global().counter("obs.metrics_file_errors");
    errors.add();
    return;
  }
  const std::string fragment = delta.json_fragment();
  std::fprintf(file, "{\"wall_ms\":%" PRId64 ",\"interval_ms\":%" PRId64 ",%s}\n",
               current.wall_ms, interval, fragment.c_str());
  std::fclose(file);
}

}  // namespace

Sampler::Sampler(Registry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread(&Sampler::run, this);
}

void Sampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void Sampler::run() {
  static auto& samples = Registry::global().counter("obs.samples");
  TimePoint previous;
  bool have_previous = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                         [this] { return stop_requested_; })) {
        return;
      }
    }
    TimePoint point;
    point.wall_ms = wall_clock_ms();
    point.mono_ns = now_ns();
    point.snapshot = registry_.snapshot();
    append_metrics_line(options_.metrics_file, options_.interval_ms, point,
                        have_previous ? &previous : nullptr);
    ++samples_;
    samples.add();
    previous = std::move(point);
    have_previous = true;
  }
}

}  // namespace polaris::obs
