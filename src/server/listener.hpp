// One framed-socket listener for the serve daemon (server.hpp) and the
// shard worker (worker.hpp): the endpoint bind, the accept loop, one
// handler thread per connection, the frame loop and the graceful drain.
// Its owner supplies only the request semantics, as a handler called once
// per request frame.
//
// accept(2) errors: a pending-connection error is retried at once. Running
// out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is counted
// in `<name>.accept_errors`, logged, and retried after one accept tick
// spent waiting on the wake pipe alone (the listening fd stays readable,
// so polling it would spin). Any other errno drains the listener.
//
// Metrics, under the owner's name: `<name>.frames_in/frames_out/
// frame_errors/connections_opened/connections_closed/accept_errors` and
// the `<name>.drain_us` histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "server/net.hpp"

namespace polaris::server {

class Listener {
 public:
  /// Serves one request frame's payload on `fd`, on the connection's
  /// thread: writes the reply frame itself (streaming partials first, if
  /// any) and returns whether the connection stays open. The listener then
  /// counts the reply. A throw drops the connection uncounted.
  using Handler =
      std::function<bool(int fd, std::vector<std::uint8_t>& payload)>;

  /// Binds and listens on the endpoint spec. `name` prefixes the metrics
  /// and log lines ("server", "worker"). Throws std::runtime_error on
  /// bind failure. No connection is accepted until start().
  Listener(const std::string& endpoint, int backlog, std::size_t max_frame,
           const std::string& name, Handler handler);
  /// Drains (as request_stop + wait) if started, then closes its fds.
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Spawns the accept loop. Call once.
  void start();
  /// Graceful stop: one write to a pipe, async-signal-safe. Idempotent.
  /// The drain closes (and unlinks) the endpoint, and every handler
  /// finishes its in-flight request and delivers the reply.
  void request_stop();
  /// Blocks until the accept loop and every handler have exited.
  void wait();

  /// The endpoint actually bound (an ephemeral TCP port 0 resolved).
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }
  /// True once the drain has begun: handlers pass it to their frame
  /// writes as the cancel probe and refuse new work.
  [[nodiscard]] bool stopping() const { return stopping_.load(); }
  /// Reply frames sent, structured frame errors included.
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }
  /// Connections whose handler is still running.
  [[nodiscard]] std::uint64_t connections_active() const;

 private:
  /// One accepted connection: its handler thread plus a completion flag
  /// the accept loop reaps on (a long-lived listener must not accumulate a
  /// dead thread per past connection).
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Joins and discards connections whose handlers have finished. Only
  /// ever called from the accept thread.
  void reap_finished_connections();
  void handle_connection(int fd);

  std::size_t max_frame_;
  std::string name_;
  Handler handler_;
  net::Endpoint endpoint_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};

  obs::Counter& frames_in_;
  obs::Counter& frames_out_;
  obs::Counter& frame_errors_;
  obs::Counter& connections_opened_;
  obs::Counter& connections_closed_;
  obs::Counter& accept_errors_;
  obs::Histogram& drain_us_;

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::thread accept_thread_;  // last: it uses everything above
};

}  // namespace polaris::server
