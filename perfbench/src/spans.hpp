// In-memory spans for the traced run.
//
// The benchmark records a span around each of its own calls into a POLARIS
// module (nothing inside the library is instrumented). Spans are kept in
// memory and written out once, when the run ends, as Chrome trace-event
// JSON. A disabled tracer hands out inert scopes: no clock read, no lock.
//
// Parentage: a span opened on a thread is the child of the innermost span
// still open on that thread; work handed to another thread names its
// parent explicitly (child()), so concurrent children of one span overlap
// and self time counts their union once (stats.hpp). Every span carries
// the id of its root span as `trace`, shared by all spans of one operation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;   // id of the root span
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

[[nodiscard]] inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// An open span; records itself when closed or destroyed.
  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& other) noexcept { *this = std::move(other); }
    Scope& operator=(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Ends the span now (idempotent).
    void close();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;  // null: inert or already closed
    Span span_;
    bool on_stack_ = false;  // pushed on the opening thread's span stack
  };

  /// Opens a span under the innermost open span of the calling thread.
  [[nodiscard]] Scope span(std::string_view name);
  /// Opens a span under `parent`, which may be open on another thread and
  /// must stay open until this one closes.
  [[nodiscard]] Scope child(std::string_view name, const Scope& parent);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations of every recorded span named `name`, in milliseconds.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  [[nodiscard]] double total_ms(std::string_view name) const;

  struct NameSummary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, NameSummary> summary() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// track per thread). Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  Scope open(std::string_view name, std::uint64_t parent, std::uint64_t trace,
             bool on_stack);
  void record(const Span& span);

  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
