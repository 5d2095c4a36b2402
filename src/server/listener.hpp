// One framed-socket listener for the serve daemon (server.hpp) and the
// shard worker (worker.hpp): the endpoint bind, the accept loop, one
// handler thread per connection, the frame loop, the request envelope and
// the graceful drain. Its owner supplies only a Service: the switch over
// the request kinds it serves.
//
// The envelope: decode the kind; answer `shutdown` here (reply,
// request_stop, close); once the drain has begun, refuse every other kind
// but `ping` with kShuttingDown, queued requests included; else call the
// service. A ServerError becomes its status and any other exception
// kBadPayload. Each decoded request is timed in `<name>.<kind>_us`
// (decode through compute, frame I/O excluded), spans `request`, shows in
// inflight() until just before its reply write, and lands in the flight
// recorder after it.
//
// accept(2) errors: a pending-connection error is retried at once. Running
// out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is counted
// in `<name>.accept_errors`, logged, and retried after one accept tick
// spent waiting on the wake pipe alone (the listening fd stays readable,
// so polling it would spin). Any other errno drains the listener.
//
// Metrics, under the owner's name: `<name>.frames_in/frames_out/
// frame_errors/request_errors/connections_opened/connections_closed/
// accept_errors` and the `<name>.drain_us` and `<name>.<kind>_us`
// histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "server/flight_recorder.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"

namespace polaris::server {

class Listener {
 public:
  /// A reply body, null for an empty one. The type of
  /// core::ResultCache::Body, so a cached body is written without a copy.
  using Body = std::shared_ptr<const std::vector<std::uint8_t>>;
  struct Reply {
    Body body;
    bool cache_hit = false;  // body served from the owner's result cache
  };
  /// Serves one request of `kind`, whose fields follow in `in`, on the
  /// connection's thread. `fd` is the connection, for a reply that streams
  /// partial frames ahead of the one the listener writes. Throws
  /// ServerError to refuse; a kind the owner does not serve is kBadRequest.
  using Service =
      std::function<Reply(RequestKind kind, serialize::Reader& in, int fd)>;

  /// Binds and listens on the endpoint spec. `name` prefixes the metrics
  /// and log lines ("server", "worker") and is the request span's
  /// category, so it must be a string literal. The flight recorder keeps
  /// the last `flight_records` requests (0 keeps none) and logs those
  /// slower than `slow_request_us` (0 never). Throws std::runtime_error on
  /// bind failure. No connection is accepted until start().
  Listener(const std::string& endpoint, std::size_t max_frame,
           const char* name, std::size_t flight_records,
           std::uint64_t slow_request_us, Service service);
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
  /// True once the drain has begun: the cancel probe of every frame write.
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
  /// The requests being served at `now_ns`, oldest first.
  [[nodiscard]] std::vector<InflightEntry> inflight(std::int64_t now_ns) const;
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

 private:
  /// A request from its decode until just before its reply write.
  struct Request {
    std::uint8_t kind = 0;  // RequestKind as sent on the wire
    std::uint64_t bytes = 0;  // payload size
    std::int64_t start_ns = 0;
  };
  /// One accepted connection: its handler thread, a completion flag the
  /// accept loop reaps on (a long-lived listener must not accumulate a
  /// dead thread per past connection), and the request it is serving.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
    std::optional<Request> request;  // guarded by connections_mutex_
  };

  void accept_loop();
  /// Joins and discards connections whose handlers have finished. Only
  /// ever called from the accept thread.
  void reap_finished_connections();
  void handle_connection(Connection& connection, int fd);
  /// The envelope: serves one request frame's payload and writes its
  /// reply. Returns whether the connection stays open.
  bool serve_frame(Connection& connection, int fd,
                   std::vector<std::uint8_t>& payload);
  void set_request(Connection& connection, std::optional<Request> request);

  std::size_t max_frame_;
  const char* name_;
  Service service_;
  net::Endpoint endpoint_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  FlightRecorder recorder_;

  obs::Counter& frames_in_;
  obs::Counter& frames_out_;
  obs::Counter& frame_errors_;
  obs::Counter& request_errors_;
  obs::Counter& connections_opened_;
  obs::Counter& connections_closed_;
  obs::Counter& accept_errors_;
  obs::Histogram& drain_us_;
  std::vector<obs::Histogram*> service_us_;  // by RequestKind

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::thread accept_thread_;  // last: it uses everything above
};

}  // namespace polaris::server
