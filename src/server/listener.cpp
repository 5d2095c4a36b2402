#include "server/listener.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "server/protocol.hpp"

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

}  // namespace

Listener::Listener(const std::string& endpoint, int backlog,
                   std::size_t max_frame, const std::string& name,
                   Handler handler)
    : max_frame_(max_frame),
      name_(name),
      handler_(std::move(handler)),
      frames_in_(obs::Registry::global().counter(name + ".frames_in")),
      frames_out_(obs::Registry::global().counter(name + ".frames_out")),
      frame_errors_(obs::Registry::global().counter(name + ".frame_errors")),
      connections_opened_(
          obs::Registry::global().counter(name + ".connections_opened")),
      connections_closed_(
          obs::Registry::global().counter(name + ".connections_closed")),
      accept_errors_(obs::Registry::global().counter(name + ".accept_errors")),
      drain_us_(obs::Registry::global().histogram(name + ".drain_us")) {
  // The endpoint layer handles both transports: UDS with the stale-socket
  // replacement, TCP with SO_REUSEADDR before bind.
  const net::Endpoint requested = net::parse_endpoint(endpoint);
  listen_fd_ = net::listen_endpoint(requested, backlog);
  endpoint_ = net::bound_endpoint(listen_fd_, requested);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const int error = errno;
    ::close(listen_fd_);
    net::unlink_if_uds(endpoint_);
    throw std::runtime_error("polaris " + name_ +
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
    throw std::logic_error("polaris " + name_ + ": start() called twice");
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
      obs::log(name_.c_str(), std::string("accept: ") + std::strerror(error) +
                                  "; retrying in " +
                                  std::to_string(kAcceptPollMs) + " ms");
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
      handle_connection(fd);
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

void Listener::handle_connection(int fd) {
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
      const bool keep_open = handler_(fd, payload);
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

}  // namespace polaris::server
