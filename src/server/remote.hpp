// Distributed shard coordinator: runs a multi-design TVLA audit on local
// lanes plus remote shard workers (server/worker.hpp), through the same
// engine::Scheduler every local campaign runs on.
//
// Work decomposition reuses the engine's own unit: every campaign's
// engine::ShardPlan already splits the trace budget into shards whose
// per-shard statistics are a pure function of (design, config, shard
// index). audit() submits one campaign per design to a private Scheduler
// whose drain() is the local lanes, and starts one feeder thread per
// remote worker. A feeder leases up to kShardsPerChunk consecutive shards
// at a time from the same LPT queue, ships them as one request, and
// completes each returned moments block into the same slot and merge
// cursor a local run fills.
//
// Bit-identity contract: every shard, wherever it ran, merges in
// ascending shard order, with early-stop checkpoints fired at exactly the
// single-host shard-prefix counts, so audit output is byte-identical to a
// single-host run at ANY worker count, including zero and including
// workers dying mid-campaign. Because the merge is live, an early stop
// cancels queued remote work too, and streaming partials arrive as the
// prefix lands.
//
// Failure semantics: a worker that cannot be reached, times out, or
// closes its connection is marked dead (one "net" log line); its
// unanswered leases are abandoned back to the queue (counted as resends)
// and completed by the remaining lanes - a campaign always finishes as
// long as the coordinator itself lives, because the local drain can run
// anything.
//
// Installs: each worker slot remembers the design fingerprints it has
// sent to that worker, across audit() calls, so a design crosses the wire
// once per worker rather than once per audit. A worker that restarted and
// lost its designs answers a shard request with kUnknownDesign; the
// feeder then forgets the design and abandons the lease, and the next
// send installs it again. A lost worker's set is cleared.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "techlib/techlib.hpp"

namespace polaris::server {

/// Consecutive shards per work unit: big enough to amortize a round trip,
/// small enough that LPT balancing still has pieces to place (a campaign
/// has 16..64 shards).
inline constexpr std::size_t kShardsPerChunk = 4;

struct WorkerPoolOptions {
  std::string workers;             // comma-separated endpoint specs
  std::size_t local_threads = 0;   // local lanes; 0 = all hardware threads
  std::size_t pipeline_depth = 2;  // outstanding chunks per worker
  /// Admission control: a feeder stops sending when the request bytes of
  /// its outstanding chunks exceed this (bounds worker-side queue memory).
  std::size_t max_inflight_bytes = std::size_t{4} << 20;
  /// Per-roundtrip deadline. A worker that exceeds it is treated as dead
  /// and its chunks are requeued; 0 disables the deadline (a hung worker
  /// would then pin its chunks forever, so keep it on in production).
  std::size_t timeout_ms = 30000;
  std::size_t max_frame = kDefaultMaxFrame;
};

class WorkerPool {
 public:
  /// Parses the worker list (no connections are made until audit()).
  /// Throws std::runtime_error on an unparseable endpoint spec.
  explicit WorkerPool(WorkerPoolOptions options);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Audits every design, one result per input design in input order -
  /// the distributed drop-in for core::audit_designs, byte-identical
  /// output included. `progress` mirrors the scheduler path: it fires at
  /// each early-stop checkpoint as the merged prefix reaches it, on the
  /// local lane or feeder thread that landed the prefix.
  [[nodiscard]] std::vector<tvla::LeakageReport> audit(
      std::span<const circuits::Design> designs,
      const techlib::TechLibrary& lib, const core::PolarisConfig& config,
      tvla::ProgressFn progress = {});

  /// Per-worker fleet health, cumulative across audit() calls.
  [[nodiscard]] std::vector<WorkerHealthEntry> health() const;

  struct Totals {
    std::uint64_t shards_out = 0;   // shards shipped to remote workers
    std::uint64_t moments_in = 0;   // shard moment blocks received back
    std::uint64_t bytes = 0;        // payload bytes, both directions
    std::uint64_t resends = 0;      // shards requeued after worker loss
  };
  [[nodiscard]] Totals totals() const;

 private:
  /// Cumulative per-worker state; feeder threads update it across
  /// audit() calls, health() snapshots the stats.
  struct WorkerSlot {
    net::Endpoint endpoint;
    std::string display;
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> shards_done{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> resends{0};
    /// Design fingerprints sent to this worker. Concurrent audit() calls
    /// (the daemon's) share the slot, hence the mutex.
    std::mutex installed_mutex;
    std::unordered_set<std::uint64_t> installed;
  };

  struct Batch;  // one audit() call's shared state (remote.cpp)

  void feed_worker(WorkerSlot& slot, Batch& batch);

  WorkerPoolOptions options_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
};

}  // namespace polaris::server
