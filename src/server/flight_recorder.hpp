// Request flight recorder: a fixed-capacity ring of the last N completed
// requests, for post-hoc "what just happened" queries.
//
// Each server::Listener (listener.hpp) owns one, and every request it
// answers (success or error) deposits one Record: kind, final status,
// payload size, service duration, cache hit, and a monotonic completion
// timestamp. The daemon's status request (protocol.hpp kStatus) returns
// the ring newest-first so `polaris_cli client status` can show the recent
// request history without any server-side log scraping. The shard worker
// serves no status request, so its recorder has capacity 0 and keeps none.
//
// Requests slower than a configurable threshold additionally emit one
// rate-limited obs::log line and bump the `server.slow_requests` counter -
// the push-side complement to the pull-side ring. The worker's threshold
// is 0, so only the daemon's recorder ever logs.
//
// Pure telemetry: nothing here feeds responses, caches, or result bytes.
#pragma once

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace polaris::server {

class FlightRecorder {
 public:
  struct Record {
    std::uint8_t kind = 0;       // RequestKind as sent on the wire
    std::uint8_t status = 0;     // Status the response carried
    bool cache_hit = false;      // body served from the result cache
    std::uint64_t bytes = 0;     // request payload size
    std::uint64_t duration_us = 0;  // decode-to-encode service time
    std::int64_t completed_ns = 0;  // obs::now_ns() at completion
  };

  /// `capacity` = 0 keeps no records. `slow_threshold_us` = 0 disables
  /// slow-request logging (every request would be "slow").
  explicit FlightRecorder(std::size_t capacity,
                          std::uint64_t slow_threshold_us = 0);

  /// Deposits one completed request, evicting the oldest once full.
  /// `kind_name` only feeds the slow-request log line.
  void record(const Record& record, std::string_view kind_name);

  /// Completed requests, newest first (at most `capacity` of them).
  [[nodiscard]] std::vector<Record> recent() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Total records ever deposited (not capped by the ring).
  [[nodiscard]] std::uint64_t total_recorded() const;

 private:
  const std::size_t capacity_;
  const std::uint64_t slow_threshold_us_;
  mutable std::mutex mutex_;
  std::vector<Record> ring_;   // grows to capacity_, then wraps
  std::size_t next_ = 0;       // ring_[next_] is the oldest once full
  std::uint64_t total_ = 0;
};

}  // namespace polaris::server
