// The POLARIS masking daemon: load a .plb bundle once, serve audit / mask /
// score requests over a Unix-domain socket (or TCP) for the lifetime of the
// process.
//
// polaris_cli pays a process launch, a bundle load, and cold caches on
// every invocation; the daemon pays them once. The transport and the
// request envelope - accept loop, one handler thread per connection, frame
// loop, header-level frame errors, kind decode, shutdown and drain
// refusals, error statuses, per-kind timing, the in-flight table, the
// flight recorder, reply frames, graceful drain - are a server::Listener
// (listener.hpp) shared with the shard worker; this class holds only the
// request semantics, one serve() switch over the kinds it answers.
// All TVLA work - distributed audits under --workers included - funnels
// into ONE engine::Scheduler: concurrent clients' campaigns share its
// queue, its lanes and its progress table (the status reply). Each handler
// runs and waits on its own campaigns only (drain(ids), handle get()), so
// a small audit never waits behind a big one. Repeated requests for an
// unchanged design hit the core::ResultCache and replay byte-identical
// reply bodies.
//
// Shutdown is graceful: request_stop() (async-signal-safe: one write to a
// pipe) stops the accept loop; in-flight requests run to completion and
// their responses are delivered before wait() returns and the socket file
// is unlinked. A request still queued on an open connection is answered
// kShuttingDown, a ping excepted. The metrics sampler, which runs only
// when a metrics file is named, stops after the drain.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/polaris.hpp"
#include "core/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "obs/timeseries.hpp"
#include "server/listener.hpp"
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
  /// Comma-separated shard-worker endpoints. Non-empty routes every audit
  /// campaign through a WorkerPool: the daemon's scheduler lanes plus these
  /// workers. Results stay byte-identical, so the result cache and its
  /// keys are untouched.
  std::string workers;
  /// Non-empty runs the metrics sampler, which appends one JSON delta line
  /// per second here. Pure telemetry: served results never change.
  std::string metrics_file;
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
  ~Server() = default;

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
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return listener_.endpoint();
  }

 private:
  /// The listener's service: audit, audit_stream, mask, score, stats,
  /// status and ping. `fd` carries a streaming audit's partial frames.
  Listener::Reply serve(RequestKind kind, serialize::Reader& in, int fd);

  core::ResultCache::Body serve_ping();
  /// Registry snapshot + runtime identity. Never cached: the snapshot is
  /// execution telemetry and changes between any two calls.
  core::ResultCache::Body serve_stats();
  /// Live-operations snapshot: in-flight requests, per-campaign scheduler
  /// progress, flight-recorder ring. Never cached, for the same reason.
  core::ResultCache::Body serve_status();
  /// Streaming audit: identical compute and cache key to an audit, but
  /// while the campaign runs it pushes one kOk frame per early-stop
  /// checkpoint (AUDP body) onto `fd`. The returned body is the final AUDS
  /// reply - byte-identical to the non-streaming one, so both kinds share
  /// cache entries (a cache hit streams zero partials).
  Listener::Reply serve_audit_stream(int fd, serialize::Reader& in);
  /// Shared audit implementation behind both kinds: validate, then
  /// serve_cached with a submit + get + encode compute.
  Listener::Reply audit_reply(const AuditRequest& request,
                              tvla::ProgressFn progress);
  Listener::Reply serve_mask(serialize::Reader& in);
  Listener::Reply serve_score(serialize::Reader& in);

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
  Listener::Reply serve_cached(const std::string& design, double scale,
                               std::uint64_t request_key,
                               const Compute& compute);

  ServerOptions options_;
  std::int64_t start_mono_ns_ = 0;  // obs::now_ns() at construction
  core::BundleInfo info_;  // filled by the bundle load below
  core::Polaris polaris_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();
  engine::Scheduler scheduler_;  // every campaign of every request
  /// Non-null when --workers was given: audits also lease to the workers.
  std::unique_ptr<WorkerPool> pool_;
  core::ResultCache cache_;
  obs::Sampler sampler_;

  /// Last: bound after the bundle loads, and destroyed first, so its drain
  /// joins every handler before anything a handler touches goes away.
  Listener listener_;
};

}  // namespace polaris::server
