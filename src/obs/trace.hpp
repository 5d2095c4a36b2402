// polaris::obs::Tracer - span tracing exportable as Chrome trace-event
// JSON (the `{"traceEvents":[...]}` format chrome://tracing and Perfetto
// load directly).
//
// Design for a cold disabled path: `Span` construction when tracing is off
// is one relaxed atomic load and a predictable branch - no clock read, no
// allocation, no lock. When tracing is on, events go to per-thread buffers
// (a light mutex each, uncontended because a buffer has exactly one
// writer) and are drained once at `stop_to_json()`. Spans are emitted at
// shard/request granularity, never inside the kernel inner loop.
//
// Same never-serialized contract as the counters (see obs.hpp): traces
// capture timing only and cannot influence results.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace polaris::obs {

/// Renders `"key":value` pairs for a span's `args` object. Values are
/// numbers or escaped strings; keys must be plain identifiers.
class TraceArgs {
 public:
  TraceArgs& add(const char* key, std::uint64_t value);
  TraceArgs& add(const char* key, const char* value);
  TraceArgs& add(const char* key, const std::string& value) {
    return add(key, value.c_str());
  }
  TraceArgs& add(const char* key, bool value);

  [[nodiscard]] std::string str() && { return std::move(body_); }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  void open(const char* key);
  std::string body_;
};

class Tracer {
 public:
  /// The process-wide tracer (immortal, like Registry::global()).
  [[nodiscard]] static Tracer& global();

  /// The one branch paid on instrumented paths while tracing is off.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Clears previous events and starts collecting. The trace timebase is
  /// the moment of this call.
  void start();

  /// Stops collecting, drains every thread's buffer, and renders one
  /// Chrome trace-event JSON object (events sorted by timestamp). Returns
  /// the number of events via `event_count` when non-null.
  [[nodiscard]] std::string stop_to_json(std::size_t* event_count = nullptr);

  /// Low-level emitters - `Span` is the normal interface. All are no-ops
  /// while disabled. `args_json` is the body of the args object ("" =
  /// none), as built by TraceArgs.
  void complete_event(const char* name, const char* category,
                      std::int64_t start_ns, std::int64_t duration_ns,
                      std::string args_json);
  /// Async begin/end ("b"/"e" phases): spans that start and finish on
  /// different threads (a campaign's shards run anywhere). Matched by
  /// (category, id, name).
  void async_begin(const char* name, const char* category, std::uint64_t id,
                   std::string args_json);
  void async_end(const char* name, const char* category, std::uint64_t id);

  /// Process-unique id for async spans.
  [[nodiscard]] static std::uint64_t next_async_id() noexcept;

 private:
  struct Event {
    const char* name;
    const char* category;
    char phase;  // 'X' complete, 'b' async begin, 'e' async end
    std::uint32_t tid;
    std::uint64_t id;  // async id (phase 'b'/'e' only)
    std::int64_t start_ns;
    std::int64_t duration_ns;  // phase 'X' only
    std::string args;
  };
  struct ThreadBuffer {
    std::mutex mutex;
    std::uint32_t tid = 0;
    std::vector<Event> events;
  };

  ThreadBuffer& buffer_for_this_thread();
  void push(Event event);

  std::atomic<bool> enabled_{false};
  std::int64_t t0_ns_ = 0;
  std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 1;
};

/// RAII complete-span ('X' event): times its own scope. Name and category
/// must be string literals (stored as pointers until export). When the
/// tracer is disabled, construction and destruction cost one branch each.
class Span {
 public:
  Span(const char* name, const char* category) {
    if (Tracer::global().enabled()) begin(name, category);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a `"key":value` arg; no-op (one branch) while inactive.
  template <typename T>
  Span& arg(const char* key, T&& value) {
    if (active_) args_.add(key, std::forward<T>(value));
    return *this;
  }

 private:
  void begin(const char* name, const char* category);
  void end();

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
  TraceArgs args_;
};

}  // namespace polaris::obs
