#include "server/listener.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "obs/trace.hpp"

namespace polaris::server {

namespace {

/// Accept-loop poll interval: bounds how long a finished connection's
/// thread lingers before being reaped, and how long the loop backs off
/// after running out of descriptors or memory.
constexpr int kAcceptPollMs = 500;

/// accept(2) errors that concern only the pending connection: a signal,
/// an aborted peer, or one of the man page's pending network errors.
bool pending_connection_error(int error) {
  for (const int pending : {EINTR, ECONNABORTED, EPROTO, ENETDOWN, ENOPROTOOPT,
                            EHOSTDOWN, ENONET, EHOSTUNREACH, ENETUNREACH}) {
    if (error == pending) return true;
  }
  return false;
}

/// accept(2) errors that say the process or the kernel is out of a
/// resource for now; the listening socket itself is fine.
bool resource_error(int error) {
  return error == EMFILE || error == ENFILE || error == ENOBUFS ||
         error == ENOMEM;
}

/// `<owner>.<metric>` in the global registry.
obs::Counter& counter(const char* owner, const char* metric) {
  return obs::Registry::global().counter(std::string(owner) + "." + metric);
}
obs::Histogram& histogram(const char* owner, const std::string& metric) {
  return obs::Registry::global().histogram(std::string(owner) + "." + metric);
}

}  // namespace

Listener::Listener(const std::string& endpoint, std::size_t max_frame,
                   const char* name, std::size_t flight_records,
                   std::uint64_t slow_request_us, Service service)
    : max_frame_(max_frame),
      name_(name),
      service_(std::move(service)),
      recorder_(flight_records, slow_request_us),
      frames_in_(counter(name, "frames_in")),
      frames_out_(counter(name, "frames_out")),
      frame_errors_(counter(name, "frame_errors")),
      request_errors_(counter(name, "request_errors")),
      connections_opened_(counter(name, "connections_opened")),
      connections_closed_(counter(name, "connections_closed")),
      accept_errors_(counter(name, "accept_errors")),
      drain_us_(histogram(name, "drain_us")) {
  // Every decodable kind has a histogram, a refused one included.
  for (auto kind = static_cast<std::uint8_t>(RequestKind::kPing);
       kind <= static_cast<std::uint8_t>(RequestKind::kShard); ++kind) {
    const char* kind_name = request_kind_name(static_cast<RequestKind>(kind));
    service_us_.push_back(&histogram(name, std::string(kind_name) + "_us"));
  }
  // The endpoint layer handles both transports: UDS with the stale-socket
  // replacement, TCP with SO_REUSEADDR before bind.
  const net::Endpoint requested = net::parse_endpoint(endpoint);
  listen_fd_ = net::listen_endpoint(requested);
  endpoint_ = net::bound_endpoint(listen_fd_, requested);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const int error = errno;
    ::close(listen_fd_);
    net::unlink_if_uds(endpoint_);
    throw std::runtime_error(std::string("polaris ") + name_ +
                             ": pipe: " + std::strerror(error));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
}

Listener::~Listener() {
  request_stop();
  wait();
  if (listen_fd_ >= 0) {  // never started: nothing drained it
    ::close(listen_fd_);
    net::unlink_if_uds(endpoint_);
  }
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

void Listener::start() {
  if (accept_thread_.joinable() || listen_fd_ < 0) {
    throw std::logic_error(std::string("polaris ") + name_ +
                           ": start() called twice");
  }
  accept_thread_ = std::thread(&Listener::accept_loop, this);
}

void Listener::request_stop() {
  // One write to a pipe: async-signal-safe, so SIGINT/SIGTERM handlers can
  // call this directly. The accept loop owns all the non-signal-safe work.
  const std::uint8_t byte = 1;
  (void)!::write(wake_write_fd_, &byte, 1);
}

void Listener::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

std::uint64_t Listener::connections_active() const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  std::uint64_t active = 0;
  for (const auto& connection : connections_) {
    if (!connection->done.load()) ++active;
  }
  return active;
}

std::vector<InflightEntry> Listener::inflight(std::int64_t now_ns) const {
  std::vector<InflightEntry> entries;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (!connection->request) continue;
      const Request& request = *connection->request;
      entries.push_back(InflightEntry{
          request.kind, request.bytes,
          static_cast<std::uint64_t>((now_ns - request.start_ns) / 1000)});
    }
  }
  // Oldest first, so the table keeps its order between polls.
  std::sort(entries.begin(), entries.end(),
            [](const InflightEntry& a, const InflightEntry& b) {
              return a.age_us > b.age_us;
            });
  return entries;
}

void Listener::accept_loop() {
  for (;;) {
    reap_finished_connections();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, kAcceptPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // reap tick
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int error = errno;
      if (pending_connection_error(error)) continue;
      if (!resource_error(error)) break;  // the listening socket is broken
      // Out of fds or memory: the pending connection stays queued and the
      // listening fd stays readable, so back off one tick on the wake pipe
      // alone - a stop request still ends the wait at once.
      accept_errors_.add();
      obs::log(name_, std::string("accept: ") + std::strerror(error) +
                          "; retrying in " + std::to_string(kAcceptPollMs) +
                          " ms");
      pollfd wake{wake_read_fd_, POLLIN, 0};
      if (::poll(&wake, 1, kAcceptPollMs) > 0) break;
      continue;
    }
    // The I/O tick bounds how long a handler takes to notice a stop
    // request, whether its client is idle or stalls mid-frame: the frame
    // I/O loops re-check the handler's cancel probe at every tick.
    net::set_io_tick(fd);
    net::set_nodelay(fd, endpoint_);
    connections_accepted_.fetch_add(1);
    connections_opened_.add();
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(*raw, fd);
      raw->done.store(true);
    });
  }

  // Graceful drain: stop accepting, let every handler finish its in-flight
  // request (handlers notice stopping_ within net::kIoTickMs), then remove
  // the socket file so "zero leaked sockets" is checkable from outside.
  stopping_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  net::unlink_if_uds(endpoint_);
  const std::int64_t drain_start = obs::now_ns();
  std::vector<std::unique_ptr<Connection>> remaining;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    remaining.swap(connections_);
  }
  for (auto& connection : remaining) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  drain_us_.record(
      static_cast<std::uint64_t>((obs::now_ns() - drain_start) / 1000));
}

void Listener::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    auto& live = connections_;
    for (auto it = live.begin(); it != live.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Joining outside the lock: done was set by the handler's last action,
  // so these joins return immediately.
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Listener::handle_connection(Connection& connection, int fd) {
  const CancelProbe stop_probe = [this] { return stopping_.load(); };
  std::vector<std::uint8_t> payload;
  try {
    for (;;) {
      // Idle waiting happens INSIDE read_frame: the socket's SO_RCVTIMEO
      // expires every net::kIoTickMs and the probe is re-checked, so both
      // an idle connection and a mid-frame stall notice a drain through
      // the same mechanism (the probe throws; the catch below closes).
      const FrameResult result =
          read_frame(fd, max_frame_, payload, stop_probe);
      if (result == FrameResult::kClosed) break;
      if (result != FrameResult::kFrame) {
        // Header-level failure: answer with a structured error frame, then
        // close - after a bad magic or an untrusted length field the byte
        // stream has no trustworthy next frame boundary.
        frame_errors_.add();
        const Status status = result == FrameResult::kBadMagic
                                  ? Status::kBadMagic
                                  : result == FrameResult::kBadVersion
                                        ? Status::kBadVersion
                                        : Status::kTooLarge;
        write_frame(fd,
                    encode_response(status, to_string(status),
                                    /*cache_hit=*/false, {}),
                    stop_probe);
        frames_out_.add();
        requests_served_.fetch_add(1);
        break;
      }
      frames_in_.add();
      const bool keep_open = serve_frame(connection, fd, payload);
      frames_out_.add();
      requests_served_.fetch_add(1);
      if (!keep_open) break;
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: there is no answerable request and no
    // usable stream; dropping this one connection is the contract (a
    // coordinator treats a lost worker connection as a dead worker).
  }
  ::close(fd);
  connections_closed_.add();
}

bool Listener::serve_frame(Connection& connection, int fd,
                           std::vector<std::uint8_t>& payload) {
  Status status = Status::kOk;
  std::string message;
  Reply reply;
  bool keep_open = true;
  const std::uint64_t payload_bytes = payload.size();
  // 0xFF marks "payload never yielded a kind" in the flight recorder; it
  // can never collide with a real RequestKind (decode rejects > kShard).
  std::uint8_t wire_kind = 0xFF;
  const char* kind_name = "?";
  // Known only once the kind decoded: an undecodable payload records
  // nowhere.
  obs::Histogram* service_us = nullptr;
  const std::int64_t t0 = obs::now_ns();
  obs::Span span("request", name_);
  try {
    serialize::Reader in(std::move(payload));
    const RequestKind kind = decode_request_kind(in);
    wire_kind = static_cast<std::uint8_t>(kind);
    kind_name = request_kind_name(kind);
    service_us = service_us_[wire_kind];
    span.arg("kind", kind_name);
    // In inflight() from here until just before the reply frame is written
    // - the window the flight recorder times.
    set_request(connection, Request{wire_kind, payload_bytes, t0});
    if (kind == RequestKind::kShutdown) {
      keep_open = false;
      request_stop();
    } else if (stopping() && kind != RequestKind::kPing) {
      throw ServerError(Status::kShuttingDown,
                        to_string(Status::kShuttingDown));
    } else {
      reply = service_(kind, in, fd);
    }
  } catch (const ServerError& error) {
    status = error.status;
    message = error.what();
  } catch (const std::exception& error) {
    // Anything the decode layer threw: the frame arrived intact but its
    // payload archive or request structure did not parse.
    status = Status::kBadPayload;
    message = error.what();
  }
  if (status != Status::kOk) request_errors_.add();
  const auto elapsed_us =
      static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000);
  if (service_us != nullptr) service_us->record(elapsed_us);
  span.arg("status", to_string(status)).arg("cache_hit", reply.cache_hit);
  // Cleared BEFORE the reply write: write_frame may throw (torn peer), and
  // the connection would show the request until it closed.
  set_request(connection, std::nullopt);
  // The probe only fires on a send timeout: a cooperating client (blocked
  // in read) always gets its in-flight response, even mid-drain; only a
  // stalled peer with a full buffer is dropped.
  const std::span<const std::uint8_t> body =
      reply.body ? std::span<const std::uint8_t>(*reply.body)
                 : std::span<const std::uint8_t>();
  write_frame(fd, encode_response(status, message, reply.cache_hit, body),
              [this] { return stopping(); });
  recorder_.record({wire_kind, static_cast<std::uint8_t>(status),
                    reply.cache_hit, payload_bytes, elapsed_us, obs::now_ns()},
                   kind_name);
  return keep_open;
}

void Listener::set_request(Connection& connection,
                           std::optional<Request> request) {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connection.request = request;
}

}  // namespace polaris::server
