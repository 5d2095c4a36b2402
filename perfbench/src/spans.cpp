#include "spans.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
  std::uint64_t trace;
};

// Spans open on this thread, innermost last. Entries are (tracer, id)
// pairs rather than Scope pointers, so scopes stay freely movable.
thread_local std::vector<OpenSpan> t_open;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

Tracer::Scope& Tracer::Scope::operator=(Scope&& other) noexcept {
  if (this != &other) {
    close();
    tracer_ = std::exchange(other.tracer_, nullptr);
    span_ = std::move(other.span_);
    on_stack_ = std::exchange(other.on_stack_, false);
  }
  return *this;
}

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  span_.end_ns = steady_ns();
  if (on_stack_) {
    for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
      if (it->tracer == tracer_ && it->id == span_.id) {
        t_open.erase(std::next(it).base());
        break;
      }
    }
  }
  tracer_->record(span_);
  tracer_ = nullptr;
}

Tracer::Scope Tracer::open(std::string_view name, std::uint64_t parent,
                           std::uint64_t trace, bool on_stack) {
  Scope scope;
  if (!enabled_) return scope;
  scope.tracer_ = this;
  scope.span_.name = std::string(name);
  scope.span_.id = next_id_.fetch_add(1);
  scope.span_.parent = parent;
  scope.span_.trace = parent == 0 ? scope.span_.id : trace;
  scope.span_.thread = thread_index();
  scope.on_stack_ = on_stack;
  if (on_stack) t_open.push_back({this, scope.span_.id, scope.span_.trace});
  scope.span_.start_ns = steady_ns();
  return scope;
}

Tracer::Scope Tracer::span(std::string_view name) {
  if (!enabled_) return {};
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->tracer == this) return open(name, it->id, it->trace, true);
  }
  return open(name, 0, 0, true);
}

Tracer::Scope Tracer::child(std::string_view name, const Scope& parent) {
  if (!enabled_) return {};
  return open(name, parent.span_.id, parent.span_.trace, true);
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const double ms : durations_ms(name)) total += ms;
  return total;
}

std::map<std::string, Tracer::NameSummary> Tracer::summary() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& span : all) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, NameSummary> out;
  for (const auto& span : all) {
    auto& entry = out[span.name];
    ++entry.count;
    entry.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    const auto it = children.find(span.id);
    const std::int64_t self =
        it == children.end()
            ? span.end_ns - span.start_ns
            : self_time({span.start_ns, span.end_ns}, it->second);
    entry.self_ms += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  for (const auto& span : all) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"";
    append_escaped(out, span.name);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"trace\":%llu}}",
                  span.thread,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.trace));
    out += buffer;
  }
  out += "]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
