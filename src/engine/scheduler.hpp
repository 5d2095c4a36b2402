// Global shard scheduler: the one place campaign shards run and merge.
//
// Every campaign - a single tvla::run_* call, a suite audit, Algorithm 1's
// labelling sweep, a distributed audit - is a set of shards submitted
// here. submit() registers a campaign (its shard count plus run_shard/
// merge/finalize callables) and returns a std::future for its result.
// All pending campaigns' shards sit in one priority queue drained by the
// shared ThreadPool; heavier campaigns' shards are popped first (LPT
// order), so short campaigns fill the stragglers' idle lanes instead of
// queueing behind them. An outside executor (server::WorkerPool's remote
// feeders) takes shards from the same queue through lease()/complete()/
// abandon().
//
// Merge: each campaign keeps one slot per shard and one cursor. A finished
// shard's state lands in its slot, and whoever lands it merges every
// contiguous state from the cursor on, in ascending shard order, under the
// campaign's merge lock; a slot holds its state only until the cursor
// passes it. Optional checkpoints fire as the cursor crosses them and may
// stop the campaign there.
//
// Determinism contract (tested in tests/test_scheduler.cpp): a campaign's
// result is bit-identical at every thread count, queue interleaving,
// submission order, and executor placement, because
//  * the shard decomposition is a pure function of the campaign (see
//    engine/shard_plan.hpp), and every batch keys its randomness from
//    stream_seed(seed, batch, tag), so placement cannot change a shard;
//  * states merge strictly in ascending shard order, so the float op
//    sequence is the 1-thread drain's, whichever threads ran the shards;
//  * a stop decision freezes the merge ceiling before any later state
//    can join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/shard_plan.hpp"
#include "engine/thread_pool.hpp"

namespace polaris::engine {

/// One row of Scheduler::progress(): a campaign that has been submitted
/// but not yet finalized, described entirely from state the scheduler
/// already tracks under its mutex. Plain data, safe to ship to a client.
struct CampaignProgress {
  std::string label;            // submit-time label ("" when none given)
  std::uint64_t sequence = 0;   // submission order (unique per scheduler)
  std::size_t shards_done = 0;  // shards retired (executed or skipped)
  std::size_t shards_total = 0;
  /// Rank in the LPT pop order among the currently active campaigns
  /// (0 = drains first). Recomputed per call - it shifts as heavier
  /// campaigns arrive.
  std::size_t queue_position = 0;
  std::uint64_t age_us = 0;  // since submit
  bool stopped = false;      // an early-stop checkpoint decided it
};

/// Early-stop hook of a campaign. `shards` lists ascending shard-prefix
/// counts; each time the ascending merge has covered the first `c` listed
/// shards, `decide(merged, c)` runs exactly once, under the campaign's
/// merge lock (so checkpoints never race each other). Returning true stops
/// the campaign: the result is finalized from exactly the first `c`
/// shards. Empty = the campaign runs every shard.
template <class State>
struct Checkpoints {
  std::vector<std::size_t> shards;
  std::function<bool(const State&, std::size_t)> decide;
};

class Scheduler {
  struct CampaignTask;

 public:
  /// `threads` caps the drain fan-out: 0 = all hardware threads, 1 = fully
  /// serial (drain runs every shard inline, in strict priority order).
  explicit Scheduler(std::size_t threads = 0)
      : threads_(ThreadPool::resolve_threads(threads)) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Registers a campaign of `shards` shards and queues them. Returns a
  /// future for the finalized result; it becomes ready once every shard
  /// has been retired (run, completed, or skipped after a stop).
  ///
  ///   run_shard(shard)        -> State   (the shard's whole batch range)
  ///   merge(into, from)       ->         (ascending shard order)
  ///   finalize(state)         -> Result  (runs once, after the merge)
  ///
  /// `weight` orders the queue (heavier campaigns drain first); 0 uses the
  /// shard count. An exception from any callable fails only this campaign:
  /// its remaining shards are skipped and the future rethrows on get().
  /// A zero-shard campaign finalizes run_shard(0) inline - shard 0 of an
  /// empty plan covers no batches, so that is the merge identity - and
  /// returns a ready future.
  template <class RunShard, class Merge, class Finalize,
            class State = std::invoke_result_t<RunShard&, std::size_t>,
            class Result = std::invoke_result_t<Finalize&, State&&>>
  std::future<Result> submit(
      std::size_t shards, RunShard run_shard, Merge merge, Finalize finalize,
      std::type_identity_t<Checkpoints<State>> checkpoints = {},
      std::size_t weight = 0, std::string label = {}) {
    auto campaign = std::make_shared<
        TypedCampaign<State, Result, RunShard, Merge, Finalize>>(
        std::move(run_shard), std::move(merge), std::move(finalize),
        std::move(checkpoints), shards);
    campaign->weight = weight == 0 ? shards : weight;
    campaign->label = std::move(label);
    std::future<Result> future = campaign->promise.get_future();
    enqueue(std::move(campaign));
    return future;
  }

  /// Executes queued shards on the shared pool (the calling thread
  /// participates) and returns once the queue is empty and no lease is
  /// outstanding; while leased shards are out it waits for them to be
  /// completed or abandoned, running any that come back. Shards submitted
  /// while draining are included. Safe to call from inside a pool job: the
  /// fan-out then runs inline (see ThreadPool).
  void drain();

  /// Shards an outside executor took from the queue: [begin, end) of the
  /// campaign submitted `campaign`-th on this scheduler (0-based, the
  /// CampaignProgress sequence).
  struct Lease {
    std::uint64_t campaign = 0;
    std::size_t begin = 0;
    std::size_t end = 0;

   private:
    friend class Scheduler;
    std::shared_ptr<CampaignTask> task;
  };

  /// Takes up to `max_shards` consecutive queued shards of the campaign at
  /// the head of the LPT queue. Shards of a stopped or failed campaign are
  /// retired unrun on the way, which may finish that campaign on this
  /// thread. Returns nullopt when no shard is queued; with `wait`, it
  /// instead blocks while another lease is outstanding (an abandon may
  /// requeue its shards) and returns nullopt once nothing is queued or
  /// leased.
  [[nodiscard]] std::optional<Lease> lease(std::size_t max_shards,
                                           bool wait = false);

  /// Lands the state of leased shard `shard` exactly as a local run does:
  /// same slot, same merge cursor, so checkpoints fire as the prefix
  /// lands, and this thread finishes the campaign if it was the last
  /// shard. A stopped campaign drops the state. Throws std::logic_error,
  /// before touching the campaign, when `State` is not the campaign's
  /// state type or the shard is not out on this lease.
  template <class State>
  void complete(const Lease& lease, std::size_t shard, State state) {
    auto* sink = dynamic_cast<StateSink<State>*>(lease.task.get());
    if (sink == nullptr) {
      throw std::logic_error(
          "Scheduler::complete: state type differs from the campaign's");
    }
    claim(lease, shard);
    sink->land(shard, std::move(state));
    retire(lease.task, /*leased=*/true);
  }

  /// Requeues every shard of `lease` that was not completed (a lost
  /// executor's work); drain() or another lease picks them up.
  void abandon(const Lease& lease);

  /// Shards still queued (not yet claimed by drain). Test/bench hook.
  [[nodiscard]] std::size_t pending_shards() const;

  /// Per-campaign progress table of every submitted-but-unfinalized
  /// campaign, in submission order. Built from state the scheduler already
  /// tracks under its mutex - no extra bookkeeping on the shard hot path.
  /// Safe to call from any thread, including from inside a running shard
  /// (run_shard holds no scheduler lock).
  [[nodiscard]] std::vector<CampaignProgress> progress() const;

 private:
  /// Type-erased campaign control block. `remaining` and `leased` are
  /// guarded by the scheduler mutex; the merge state lives in the typed
  /// subclass under its own merge lock.
  struct CampaignTask {
    virtual ~CampaignTask() = default;
    /// Runs one shard and lands its state. Never throws: failures are
    /// captured into the campaign and surface via the future.
    virtual void run_shard(std::size_t shard) noexcept = 0;
    /// Finalizes the merged prefix and fulfills the promise. Called
    /// exactly once, after the last shard retired.
    virtual void finish() noexcept = 0;

    /// A stopped or failed campaign: its queued shards retire unrun.
    [[nodiscard]] bool decided() const {
      return cancelled.load(std::memory_order_relaxed) ||
             failed.load(std::memory_order_relaxed);
    }
    void fail(std::exception_ptr cause) noexcept {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::move(cause);
      failed.store(true, std::memory_order_relaxed);
    }

    std::size_t shard_count = 0;
    std::size_t weight = 0;
    std::uint64_t sequence = 0;  // submission order, the priority tie-break
    std::size_t remaining = 0;   // shards not yet retired
    std::vector<bool> leased;    // per shard: out on a lease, uncompleted
    std::int64_t enqueue_ns = 0;  // obs timebase; makespan = finish - this
    std::string label;            // progress-table identity (may be empty)
    /// Set once when a checkpoint decides the campaign. Skipping its
    /// queued shards is an optimization only - a shard that slips through
    /// before the flag is visible wastes work but cannot change the
    /// result, because the merge ceiling froze under the merge lock.
    std::atomic<bool> cancelled{false};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;  // first failure; read by finish()
  };

  /// The typed landing point Scheduler::complete reaches through a
  /// checked dynamic_cast.
  template <class State>
  struct StateSink : CampaignTask {
    /// Puts `state` in its slot and advances the ascending merge cursor,
    /// firing each checkpoint exactly once as it is crossed. Never throws.
    virtual void land(std::size_t shard, State&& state) noexcept = 0;
  };

  template <class State, class Result, class RunShard, class Merge,
            class Finalize>
  struct TypedCampaign final : StateSink<State> {
    TypedCampaign(RunShard run, Merge merge, Finalize finalize,
                  Checkpoints<State> checkpoints, std::size_t shards)
        : run(std::move(run)),
          merge(std::move(merge)),
          finalize(std::move(finalize)),
          checkpoints(std::move(checkpoints)),
          states(shards),
          stop_at(shards) {
      this->shard_count = shards;
      this->remaining = shards;
      this->leased.assign(shards, false);
    }

    void run_shard(std::size_t shard) noexcept override {
      try {
        land(shard, run(shard));
      } catch (...) {
        this->fail(std::current_exception());
      }
    }

    void land(std::size_t shard, State&& state) noexcept override {
      if (this->failed.load(std::memory_order_relaxed)) return;
      try {
        const std::lock_guard<std::mutex> lock(merge_mutex);
        if (shard >= stop_at) return;  // a checkpoint stopped below it
        states[shard].emplace(std::move(state));
        while (merged_upto < stop_at && states[merged_upto].has_value()) {
          if (merged) {
            merge(*merged, std::move(*states[merged_upto]));
          } else {
            merged.emplace(std::move(*states[merged_upto]));
          }
          states[merged_upto].reset();
          ++merged_upto;
          if (next_checkpoint < checkpoints.shards.size() &&
              merged_upto == checkpoints.shards[next_checkpoint]) {
            ++next_checkpoint;
            if (checkpoints.decide(*merged, merged_upto)) {
              stop_at = merged_upto;  // freeze: no later state ever merges
              states.clear();         // drop states that landed past it
              this->cancelled.store(true, std::memory_order_relaxed);
              break;
            }
          }
        }
      } catch (...) {
        this->fail(std::current_exception());
      }
    }

    void finish() noexcept override {
      // The finisher saw the last retire under the scheduler mutex, which
      // every land's merge-lock release happens-before.
      try {
        if (this->error) std::rethrow_exception(this->error);
        if (!merged) merged.emplace(run(0));  // zero-shard campaign
        promise.set_value(finalize(std::move(*merged)));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }

    RunShard run;
    Merge merge;
    Finalize finalize;
    Checkpoints<State> checkpoints;
    std::promise<Result> promise;
    std::mutex merge_mutex;  // guards everything below
    std::vector<std::optional<State>> states;  // landed, not yet merged
    std::optional<State> merged;  // ascending merge of [0, merged_upto)
    std::size_t merged_upto = 0;
    std::size_t next_checkpoint = 0;
    std::size_t stop_at = 0;  // merge ceiling; lowered once on a stop
  };

  struct QueueEntry {
    std::shared_ptr<CampaignTask> campaign;
    std::size_t shard = 0;
  };
  /// Max-heap order: heavier campaign first (LPT), then submission order,
  /// then ascending shard - a deterministic total order, so serial drains
  /// execute an identical schedule every run.
  struct EntryOrder {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.campaign->weight != b.campaign->weight) {
        return a.campaign->weight < b.campaign->weight;
      }
      if (a.campaign->sequence != b.campaign->sequence) {
        return a.campaign->sequence > b.campaign->sequence;
      }
      return a.shard > b.shard;
    }
  };

  void enqueue(std::shared_ptr<CampaignTask> campaign);
  /// Pops and executes one shard (or skips it, for a decided campaign).
  /// Returns false when the queue was empty.
  bool run_next();
  /// Marks leased shard `shard` completed; throws std::logic_error when it
  /// is not out on `lease`.
  void claim(const Lease& lease, std::size_t shard);
  /// Counts one shard of `campaign` as retired and, if it was the last,
  /// finishes the campaign on this thread.
  void retire(const std::shared_ptr<CampaignTask>& campaign, bool leased);

  mutable std::mutex mutex_;
  /// Signalled when shards are queued or the last outstanding lease ends:
  /// what drain() and a waiting lease() sleep on.
  std::condition_variable idle_cv_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryOrder> queue_;
  /// Campaigns submitted but not yet finalized, submission order. Entries
  /// are appended by enqueue and erased by retire after the last shard -
  /// so the progress table empties exactly when every future is ready.
  std::vector<std::shared_ptr<CampaignTask>> active_;
  std::size_t leased_ = 0;  // shards out on leases, across campaigns
  std::size_t threads_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace polaris::engine
