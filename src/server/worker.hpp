// The POLARIS shard worker: a process that executes TVLA campaign shards
// on behalf of a remote coordinator (server/remote.hpp).
//
// A worker is the serve daemon's little sibling: the same accept loop,
// handler threads, frame codec, and graceful drain, but no bundle, no
// result cache, and only four request kinds (ping / design / shard /
// shutdown). A coordinator first installs each design ONCE with kDesign
// (netlist + input roles under the content fingerprint); the worker
// compiles it into a tvla::ShardRunner it caches per (config, design)
// fingerprint pair, so every later kShard for the same campaign reuses
// the compiled plan. Shard requests carry only the fingerprint, the
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
#include <thread>
#include <unordered_map>
#include <vector>

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
  int backlog = 64;         // listen(2) backlog
};

class Worker {
 public:
  /// Binds + listens on the configured endpoint. Throws std::runtime_error
  /// on bind failure. No requests are served until start().
  explicit Worker(WorkerOptions options);
  /// Stops (as request_stop + wait) if still running, then closes fds.
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Spawns the accept loop. Call once.
  void start();

  /// Graceful stop, async-signal-safe (one pipe write). Idempotent.
  void request_stop();

  /// Blocks until the accept loop and every handler have exited.
  void wait();

  /// The endpoint actually bound - an ephemeral TCP port 0 in the options
  /// resolves to the kernel-assigned port here (tests depend on this).
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }

  [[nodiscard]] std::uint64_t shards_run() const { return shards_run_.load(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reap_finished_connections();
  void handle_connection(int fd);
  /// Decodes and serves one request payload. Returns false when the
  /// connection should close (a served shutdown request).
  bool handle_payload(int fd, std::vector<std::uint8_t>& payload);

  std::vector<std::uint8_t> serve_ping();
  std::vector<std::uint8_t> serve_design(serialize::Reader& in);
  std::vector<std::uint8_t> serve_shards(serialize::Reader& in);

  /// The compiled-plan cache entry for one (config, design) pair.
  std::shared_ptr<tvla::ShardRunner> runner_for(const ShardRequest& request);

  WorkerOptions options_;
  net::Endpoint endpoint_;
  techlib::TechLibrary lib_ = techlib::TechLibrary::default_library();

  /// Installed designs, heap-owned: ShardRunner keeps references into the
  /// netlist, so the Design objects must have stable addresses for the
  /// worker's lifetime (they are never evicted - a worker serves one
  /// coordinator's suite, a bounded set).
  std::mutex designs_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<circuits::Design>> designs_;
  std::unordered_map<std::uint64_t, std::shared_ptr<tvla::ShardRunner>>
      runners_;  // keyed by combine(config_fp, design_fp)

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> shards_run_{0};

  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool started_ = false;
};

}  // namespace polaris::server
