// Reusable worker pool for shard-parallel trace campaigns.
//
// Design constraints (see DESIGN.md "Shard-parallel trace engine"):
//  * one process-wide pool, created lazily and reused by every campaign -
//    TVLA runs thousands of short campaigns (Algorithm 1 labelling), so
//    per-campaign thread spawn/join would dominate;
//  * the submitting thread always participates in its own job, and a
//    parallel_for issued from inside a running job executes inline
//    (Algorithm 1 runs campaigns concurrently; each campaign's shard
//    fan-out then stays on its campaign's thread) - no deadlock, and
//    nested levels never multiply their concurrency caps;
//  * jobs cap their worker fan-out with a ticket count so a `threads = 2`
//    flow never spreads across the whole machine.
//
// The pool distributes *indices*, not closures: parallel_for(n, cap, fn)
// runs fn(i) for i in [0, n) with dynamic (atomic counter) load balancing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace polaris::engine {

class ThreadPool {
 public:
  /// Spawns `workers` persistent threads (0 is valid: every job then runs
  /// inline on the submitting thread).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n). Blocks until all n calls returned.
  /// At most `max_concurrency` threads (including the caller) execute fn
  /// simultaneously; 0 means "no cap beyond pool size". A call made from
  /// inside a running job executes inline: only the outermost fan-out level
  /// recruits workers, so nested levels (designs -> campaigns -> shards)
  /// never multiply their caps and a `threads = N` flow is bounded by N.
  void parallel_for(std::size_t n, std::size_t max_concurrency,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Process-wide pool sized to the hardware (hardware_concurrency - 1
  /// workers; the submitting thread supplies the remaining lane). The
  /// POLARIS_POOL_WORKERS environment variable overrides the worker count
  /// (used by the TSan CI job to force real threads on small runners).
  static ThreadPool& shared();

  /// Maps a user-facing `threads` knob to an effective thread count:
  /// 0 = all hardware threads, otherwise the requested value.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested);

 private:
  struct Job {
    Job(std::size_t n, std::size_t tickets,
        const std::function<void(std::size_t)>& fn)
        : n_total(n), tickets(tickets), fn(fn) {}
    const std::size_t n_total;
    std::size_t next = 0;       // guarded by the pool mutex
    std::size_t completed = 0;  // guarded by the pool mutex
    std::size_t tickets;        // workers still allowed to join
    std::exception_ptr error;   // first exception thrown by fn, if any
    const std::function<void(std::size_t)>& fn;
  };

  /// Claims and runs indices of `job` until exhausted. Called with the pool
  /// lock held; returns with it held.
  void drive(std::unique_lock<std::mutex>& lock, const std::shared_ptr<Job>& job);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: "a job may need hands"
  std::condition_variable done_cv_;  // submitters: "a job may be complete"
  std::deque<std::shared_ptr<Job>> jobs_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace polaris::engine
