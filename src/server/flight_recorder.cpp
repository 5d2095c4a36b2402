#include "server/flight_recorder.hpp"

#include <string>

#include "obs/obs.hpp"

namespace polaris::server {

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::uint64_t slow_threshold_us)
    : capacity_(capacity), slow_threshold_us_(slow_threshold_us) {}

void FlightRecorder::record(const Record& record, std::string_view kind_name) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(record);
    } else if (capacity_ > 0) {
      ring_[next_] = record;
      next_ = (next_ + 1) % capacity_;
    }
    ++total_;
  }
  if (slow_threshold_us_ != 0 && record.duration_us >= slow_threshold_us_) {
    static auto& slow = obs::Registry::global().counter("server.slow_requests");
    slow.add();
    // obs::log is already token-bucket limited, so a pathological burst of
    // slow requests costs a handful of lines plus obs.log_suppressed.
    obs::log("server", "slow request: kind=" + std::string(kind_name) +
                           " duration_us=" + std::to_string(record.duration_us) +
                           " bytes=" + std::to_string(record.bytes) +
                           " status=" + std::to_string(record.status) +
                           (record.cache_hit ? " cache_hit" : ""));
  }
}

std::vector<FlightRecorder::Record> FlightRecorder::recent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.reserve(ring_.size());
  // Newest first: walk backward from the slot before next_ (the most
  // recently written once the ring wrapped; ring_.back() before that).
  if (ring_.size() < capacity_) {
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) out.push_back(*it);
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const std::size_t slot =
          (next_ + ring_.size() - 1 - i) % ring_.size();
      out.push_back(ring_[slot]);
    }
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

}  // namespace polaris::server
