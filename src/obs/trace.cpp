#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>

#include "util/strings.hpp"

namespace polaris::obs {

namespace {

// Per-thread buffer cap: a runaway span source cannot grow a trace without
// bound. 1M events is far above any real CLI run; drops are counted.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

using util::appendf;

}  // namespace

// --- TraceArgs ------------------------------------------------------------

void TraceArgs::open(const char* key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

TraceArgs& TraceArgs::add(const char* key, std::uint64_t value) {
  open(key);
  appendf(body_, "%" PRIu64, value);
  return *this;
}

TraceArgs& TraceArgs::add(const char* key, const char* value) {
  open(key);
  body_ += '"';
  body_ += util::json_escape(value);
  body_ += '"';
  return *this;
}

TraceArgs& TraceArgs::add(const char* key, bool value) {
  open(key);
  body_ += value ? "true" : "false";
  return *this;
}

// --- Tracer ---------------------------------------------------------------

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // immortal, like Registry::global
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  // One buffer per (thread, process) - the global tracer is a singleton,
  // so a single thread_local slot suffices. shared_ptr keeps the buffer
  // alive for the tracer even after the thread exits.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::push(Event event) {
  ThreadBuffer& buffer = buffer_for_this_thread();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    static auto& dropped =
        Registry::global().counter("obs.trace_events_dropped");
    dropped.add();
    return;
  }
  buffer.events.push_back(std::move(event));
}

void Tracer::start() {
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
    t0_ns_ = now_ns();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

std::string Tracer::stop_to_json(std::size_t* event_count) {
  enabled_.store(false, std::memory_order_relaxed);

  std::vector<Event> events;
  std::int64_t t0;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    t0 = t0_ns_;
    for (const auto& buffer : buffers_) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      events.insert(events.end(),
                    std::make_move_iterator(buffer->events.begin()),
                    std::make_move_iterator(buffer->events.end()));
      buffer->events.clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              return a.start_ns < b.start_ns;
            });
  if (event_count != nullptr) *event_count = events.size();

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& event : events) {
    if (!first) out += ',';
    first = false;
    appendf(out, "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f",
            event.name, event.category, event.phase, event.tid,
            static_cast<double>(event.start_ns - t0) / 1000.0);
    if (event.phase == 'X') {
      appendf(out, ",\"dur\":%.3f",
              static_cast<double>(event.duration_ns) / 1000.0);
    } else {
      appendf(out, ",\"id\":\"0x%" PRIx64 "\"", event.id);
    }
    out += ",\"args\":{";
    out += event.args;
    out += "}}";
  }
  out += "]}";
  return out;
}

void Tracer::complete_event(const char* name, const char* category,
                            std::int64_t start_ns, std::int64_t duration_ns,
                            std::string args_json) {
  if (!enabled()) return;
  push(Event{name, category, 'X', 0, 0, start_ns, duration_ns,
             std::move(args_json)});
}

void Tracer::async_begin(const char* name, const char* category,
                         std::uint64_t id, std::string args_json) {
  if (!enabled()) return;
  push(Event{name, category, 'b', 0, id, now_ns(), 0, std::move(args_json)});
}

void Tracer::async_end(const char* name, const char* category,
                       std::uint64_t id) {
  if (!enabled()) return;
  push(Event{name, category, 'e', 0, id, now_ns(), 0, {}});
}

std::uint64_t Tracer::next_async_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// --- Span -----------------------------------------------------------------

void Span::begin(const char* name, const char* category) {
  name_ = name;
  category_ = category;
  start_ns_ = now_ns();
  active_ = true;
}

void Span::end() {
  active_ = false;
  const std::int64_t end_ns = now_ns();
  Tracer::global().complete_event(name_, category_, start_ns_,
                                  end_ns - start_ns_,
                                  std::move(args_).str());
}

}  // namespace polaris::obs
