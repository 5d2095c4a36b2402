// The POLARIS shard worker: a process that executes TVLA campaign shards
// on behalf of a remote coordinator (server/remote.hpp).
//
// A worker is the serve daemon's little sibling: the same transport and
// request envelope - one server::Listener (listener.hpp) with its accept
// loop, handler threads, frame loop, error statuses, per-kind timing and
// graceful drain, counted under `worker.*` - but no bundle, no result
// cache, no flight records, and only four request kinds (ping / design /
// shard, and the shutdown the listener answers). As on the daemon, a
// request queued on an open connection after the drain began is answered
// kShuttingDown, a ping excepted. A coordinator first installs each
// design ONCE with kDesign (netlist + input roles under the content
// fingerprint). The first shard request compiles it once; the worker
// keeps that plan with the design and one tvla::ShardRunner per design,
// rebuilt from the plan when a request's config fingerprint differs from
// the runner's - so memory is bounded by the installed designs, however
// many configs arrive. Shard requests carry only the fingerprint, the
// canonical config, and a shard range - a few hundred bytes - and the
// reply ships the per-shard UNMERGED moment blocks back as an archive.
//
// Determinism: per-shard moments are a pure function of (design, config,
// shard index) - stimulus streams are counter-keyed per batch and blocks
// re-anchor at the shard boundary - so the worker is free to pick its own
// thread count and SIMD width without perturbing a single output bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/listener.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

struct WorkerOptions {
  std::string listen;       // endpoint spec: "tcp:host:port" or a UDS path
                            // (tcp port 0 binds ephemeral; see endpoint())
  std::size_t threads = 0;  // per-request shard fan-out on the shared
                            // pool: 0 = all hardware threads
  std::size_t max_frame = kDefaultMaxFrame;  // per-frame payload cap, bytes
};

class Worker {
 public:
  /// Binds + listens on the configured endpoint. Throws std::runtime_error
  /// on bind failure. No requests are served until start().
  explicit Worker(WorkerOptions options);
  /// Stops (as request_stop + wait) if still running, then closes fds.
  ~Worker() = default;

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Spawns the accept loop. Call once.
  void start() { listener_.start(); }

  /// Graceful stop, async-signal-safe (one pipe write). Idempotent.
  void request_stop() { listener_.request_stop(); }

  /// Blocks until the accept loop and every handler have exited.
  void wait() { listener_.wait(); }

  /// The endpoint actually bound - an ephemeral TCP port 0 in the options
  /// resolves to the kernel-assigned port here (tests depend on this).
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return listener_.endpoint();
  }

  [[nodiscard]] std::uint64_t shards_run() const { return shards_run_.load(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return listener_.requests_served();
  }

 private:
  /// The listener's service: ping, design and shard.
  Listener::Reply serve(RequestKind kind, serialize::Reader& in);

  Listener::Body serve_ping();
  /// An empty-body ack.
  Listener::Body serve_design(serialize::Reader& in);
  Listener::Body serve_shards(serialize::Reader& in);

  /// The runner of the request's design for the request's config.
  std::shared_ptr<tvla::ShardRunner> runner_for(const ShardRequest& request);

  WorkerOptions options_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();

  /// An installed design, its plan (null until the first shard request)
  /// and the runner of the last config it served.
  struct Installed {
    circuits::Design design;
    sim::CompiledDesignPtr plan;
    std::uint64_t config_fingerprint = 0;
    std::shared_ptr<tvla::ShardRunner> runner;
  };
  /// By design fingerprint, heap-owned: plans and runners keep references
  /// into the netlist (never evicted - a worker serves one coordinator's
  /// suite, a bounded set).
  std::mutex designs_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Installed>> designs_;

  std::atomic<std::uint64_t> shards_run_{0};

  /// Last: destroyed first, so its drain joins every handler before the
  /// designs and runners they use go away.
  Listener listener_;
};

}  // namespace polaris::server
