// The POLARIS masking daemon: load a .plb bundle once, serve audit / mask /
// score requests over a Unix-domain socket for the lifetime of the process.
//
// polaris_cli pays a process launch, a bundle load, and cold caches on
// every invocation; the daemon pays them once. Every connection gets its
// own handler thread, but all TVLA work funnels into ONE engine::Scheduler
// - concurrent clients' campaign shards interleave in a single LPT queue,
// so a small audit rides in a big one's idle lanes exactly as multi-design
// offline audits do. Repeated requests for an unchanged design hit the
// core::ResultCache and replay byte-identical reply bodies.
//
// Shutdown is graceful: request_stop() (async-signal-safe: one write to a
// pipe) stops the accept loop; in-flight requests run to completion and
// their responses are delivered before wait() returns and the socket file
// is unlinked.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/polaris.hpp"
#include "core/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "obs/timeseries.hpp"
#include "server/flight_recorder.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/remote.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

struct ServerOptions {
  std::string socket_path;  // endpoint spec: a UDS path (<= ~100 chars on
                            // Linux) or "tcp:host:port" (port 0 binds an
                            // ephemeral port; see Server::endpoint())
  std::string bundle_path;  // trained .plb bundle, loaded once at startup
  std::size_t threads = 0;  // scheduler fan-out: 0 = all hardware threads
  std::size_t max_frame = kDefaultMaxFrame;  // per-frame payload cap, bytes
  std::size_t cache_capacity = 256;          // result-cache entries
  int backlog = 64;  // listen(2) backlog: connections the kernel queues
                     // while the accept loop is busy spawning handlers
  /// Comma-separated shard-worker endpoints. Non-empty routes every audit
  /// campaign through a WorkerPool (local lanes + these workers) instead
  /// of the in-process scheduler; results stay byte-identical, so the
  /// result cache and its keys are untouched.
  std::string workers;
  // Live-operations knobs (pure telemetry; none affect served results):
  std::size_t sample_interval_ms = 1000;  // metrics sampler period, 0 = off
  std::string metrics_file;      // append one JSON delta line per interval
  std::size_t flight_records = 64;       // completed-request ring depth
  std::size_t slow_request_ms = 1000;    // log threshold, 0 = never log
};

struct ServerStats {
  std::uint64_t requests_served = 0;  // responses sent, errors included
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;  // resident reply-body bytes in the cache
  std::uint64_t connections = 0;  // accepted over the lifetime
};

class Server {
 public:
  /// Loads the bundle and binds + listens on the socket (replacing a stale
  /// socket file). Throws std::runtime_error on a bad bundle or bind
  /// failure. No requests are served until start().
  explicit Server(ServerOptions options);
  /// Stops (as request_stop + wait) if still running, then closes fds.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept loop. Call once.
  void start();

  /// Initiates a graceful stop: no new connections, in-flight requests
  /// complete. Async-signal-safe (a single write to an internal pipe), so
  /// SIGINT/SIGTERM handlers may call it directly. Idempotent.
  void request_stop();

  /// Blocks until the accept loop and every connection handler have
  /// exited (after request_stop, or a served shutdown request). The socket
  /// file is unlinked before wait() returns.
  void wait();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const core::BundleInfo& bundle_info() const { return info_; }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  /// The endpoint actually bound - an ephemeral TCP port 0 in the options
  /// resolves to the kernel-assigned port here (tests depend on this).
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  /// One accepted connection: its handler thread plus a completion flag
  /// the accept loop reaps on (a long-lived daemon must not accumulate a
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
  /// Decodes and serves one request payload. Returns false when the
  /// connection should close (a served shutdown request).
  bool handle_payload(int fd, std::vector<std::uint8_t>& payload);

  core::ResultCache::Body serve_ping();
  /// Registry snapshot + runtime identity. Never cached: the snapshot is
  /// execution telemetry and changes between any two calls.
  core::ResultCache::Body serve_stats();
  /// Live-operations snapshot: in-flight requests, per-campaign scheduler
  /// progress, flight-recorder ring. Never cached, for the same reason.
  core::ResultCache::Body serve_status();
  core::ResultCache::Body serve_audit(serialize::Reader& in, bool& cache_hit);
  /// Streaming audit: identical compute and cache key to serve_audit, but
  /// while the campaign runs it pushes one kOk frame per early-stop
  /// checkpoint (AUDP body) onto `fd`. The returned body is the final AUDS
  /// reply - byte-identical to the non-streaming one, so both kinds share
  /// cache entries (a cache hit streams zero partials).
  core::ResultCache::Body serve_audit_stream(int fd, serialize::Reader& in,
                                             bool& cache_hit);
  /// Shared audit implementation behind both kinds: validate, then
  /// serve_cached with a submit + drain + encode compute.
  core::ResultCache::Body audit_body(const AuditRequest& request,
                                     bool& cache_hit,
                                     tvla::ProgressFn progress);
  core::ResultCache::Body serve_mask(serialize::Reader& in, bool& cache_hit);
  core::ResultCache::Body serve_score(serialize::Reader& in, bool& cache_hit);

  /// Encodes the reply body for one built design (throws on failure).
  using Compute =
      std::function<std::vector<std::uint8_t>(const circuits::Design&)>;
  /// The request path audit, mask and score share. Keys the request on
  /// `request_key` (config fingerprint, kind and parameters) plus the
  /// design source's identity, with no netlist built, and answers a hit
  /// from the cache. On a miss it builds the design from that same source
  /// (a .v file's bytes are read once, hashed for the key and parsed from
  /// memory), runs `compute` and caches the body. A bad scale, name or
  /// file answers kBadRequest; a failed compute kServerError.
  core::ResultCache::Body serve_cached(const std::string& design, double scale,
                                       std::uint64_t request_key,
                                       bool& cache_hit, const Compute& compute);

  ServerOptions options_;
  net::Endpoint endpoint_;
  core::Polaris polaris_;
  core::BundleInfo info_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();
  engine::Scheduler scheduler_;
  /// Non-null when --workers was given: audits run distributed.
  std::unique_ptr<WorkerPool> pool_;
  core::ResultCache cache_;
  FlightRecorder recorder_;
  obs::Sampler sampler_;
  std::int64_t start_mono_ns_ = 0;  // obs::now_ns() at construction
  std::int64_t start_wall_ms_ = 0;  // wall clock at construction

  /// Requests currently being serviced (decoded, not yet answered), keyed
  /// by a per-request token so concurrent handlers never collide.
  struct Inflight {
    std::uint8_t kind = 0;
    std::uint64_t bytes = 0;
    std::int64_t start_ns = 0;
  };
  std::mutex inflight_mutex_;
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::atomic<std::uint64_t> next_inflight_token_{0};

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};

  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool started_ = false;
};

}  // namespace polaris::server
