#include "engine/scheduler.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace polaris::engine {

namespace {

obs::Counter& shards_cancelled_counter() {
  static auto& counter =
      obs::Registry::global().counter("sched.shards_cancelled");
  return counter;
}

}  // namespace

std::uint64_t Scheduler::enqueue(std::shared_ptr<CampaignTask> campaign) {
  static auto& campaigns = obs::Registry::global().counter("sched.campaigns");
  static auto& shards = obs::Registry::global().counter("sched.shards");
  static auto& queue_at_submit =
      obs::Registry::global().histogram("sched.queue_at_submit");
  campaign->enqueue_ns = obs::now_ns();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    campaign->sequence = next_sequence_++;
    if (campaign->shard_count != 0) {
      // LPT position: after every heavier or equally heavy campaign (ids
      // only grow, so equal weights keep submission order).
      const auto at = std::upper_bound(
          active_.begin(), active_.end(), campaign,
          [](const auto& a, const auto& b) { return a->weight > b->weight; });
      active_.insert(at, campaign);
    }
  }
  if (campaign->shard_count == 0) {
    campaign->finish();  // ready result, nothing queued
  } else {
    campaigns.add();
    shards.add(campaign->shard_count);
    // LPT queue length as seen by this submit, including its own shards.
    queue_at_submit.record(pending_shards());
    idle_cv_.notify_all();
  }
  return campaign->sequence;
}

std::shared_ptr<Scheduler::CampaignTask> Scheduler::head(
    std::unique_lock<std::mutex>& lock, const CampaignIds* ids, bool wait) {
  std::shared_ptr<CampaignTask> found;
  idle_cv_.wait(lock, [&] {
    bool unfinished = false;
    for (const auto& task : active_) {
      if (ids != nullptr &&
          std::find(ids->begin(), ids->end(), task->sequence) == ids->end()) {
        continue;
      }
      if (task->queued() != 0) {
        found = task;
        return true;
      }
      unfinished = true;
    }
    return !wait || !unfinished;
  });
  return found;
}

bool Scheduler::run_next(const CampaignIds* ids) {
  static auto& shard_us = obs::Registry::global().histogram("sched.shard_us");
  std::shared_ptr<CampaignTask> campaign;
  std::size_t shard = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    campaign = head(lock, ids, /*wait=*/false);
    if (!campaign) return false;
    shard = campaign->take();
  }
  if (campaign->decided()) {
    // Skip the body (its state could never merge past the frozen ceiling)
    // so the lane goes to the next undecided campaign in the queue.
    if (campaign->cancelled.load(std::memory_order_relaxed)) {
      shards_cancelled_counter().add();
    }
  } else {
    obs::Span span("shard", "sched");
    span.arg("seq", campaign->sequence)
        .arg("shard", static_cast<std::uint64_t>(shard));
    const std::int64_t t0 = obs::now_ns();
    campaign->run_shard(shard);
    shard_us.record(static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  }
  retire(campaign);
  return true;
}

void Scheduler::retire(const std::shared_ptr<CampaignTask>& campaign) {
  static auto& campaign_us =
      obs::Registry::global().histogram("sched.campaign_us");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--campaign->remaining != 0) return;
    // Retire from the progress table before finish() runs: a status poll
    // never reports a campaign whose result is about to be ready with a
    // stale shard count.
    active_.erase(std::find(active_.begin(), active_.end(), campaign));
  }
  // Wake its waiters first: once finish() publishes the result the
  // scheduler may be destroyed. Finalizing outside the lock keeps other
  // lanes popping.
  idle_cv_.notify_all();
  obs::Span span("finish", "sched");
  span.arg("seq", campaign->sequence);
  campaign->finish();
  // Campaign makespan: submit-to-finalized, queueing included.
  campaign_us.record(static_cast<std::uint64_t>(
      (obs::now_ns() - campaign->enqueue_ns) / 1000));
}

void Scheduler::drain_listed(const CampaignIds* ids) {
  // One loop per lane until no listed shard is queued; shards that come
  // back after the loops end start another pass.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!head(lock, ids, /*wait=*/true)) return;
    }
    ThreadPool::shared().parallel_for(threads_, threads_, [&](std::size_t) {
      while (run_next(ids)) {
      }
    });
  }
}

std::optional<Scheduler::Lease> Scheduler::lease(const CampaignIds& ids,
                                                 std::size_t max_shards,
                                                 bool wait) {
  for (;;) {
    std::shared_ptr<CampaignTask> skipped;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      std::shared_ptr<CampaignTask> task = head(lock, &ids, wait);
      if (!task) return std::nullopt;
      const std::size_t first = task->take();
      if (!task->decided()) {
        Lease lease;
        lease.campaign = task->sequence;
        lease.begin = first;
        lease.end = first + 1;
        while (lease.end - lease.begin < max_shards && task->queued() != 0 &&
               (task->requeued.empty() ? task->next_shard
                                       : task->requeued.back()) == lease.end) {
          task->take();
          ++lease.end;
        }
        for (std::size_t s = lease.begin; s < lease.end; ++s) {
          task->leased[s] = true;
        }
        lease.task = std::move(task);
        return lease;
      }
      skipped = std::move(task);
    }
    if (skipped->cancelled.load(std::memory_order_relaxed)) {
      shards_cancelled_counter().add();
    }
    retire(skipped);
  }
}

void Scheduler::claim(const Lease& lease, std::size_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shard < lease.begin || shard >= lease.end ||
      !lease.task->leased[shard]) {
    throw std::logic_error("Scheduler::complete: shard " +
                           std::to_string(shard) + " is not out on the lease");
  }
  lease.task->leased[shard] = false;
}

void Scheduler::abandon(const Lease& lease) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& requeued = lease.task->requeued;
    for (std::size_t s = lease.begin; s < lease.end; ++s) {
      if (!lease.task->leased[s]) continue;
      lease.task->leased[s] = false;
      requeued.insert(std::upper_bound(requeued.begin(), requeued.end(), s,
                                       std::greater<>()),
                      s);
    }
  }
  idle_cv_.notify_all();
}

std::size_t Scheduler::pending_shards() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t queued = 0;
  for (const auto& task : active_) queued += task->queued();
  return queued;
}

std::vector<CampaignProgress> Scheduler::progress() const {
  const std::int64_t now = obs::now_ns();
  std::vector<CampaignProgress> table;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    table.reserve(active_.size());
    for (const auto& campaign : active_) {
      table.push_back(
          {.label = campaign->label,
           .sequence = campaign->sequence,
           .shards_done = campaign->shard_count - campaign->remaining,
           .shards_total = campaign->shard_count,
           .queue_position = table.size(),  // active_ is the LPT order
           .age_us = static_cast<std::uint64_t>(
               (now - campaign->enqueue_ns) / 1000),
           .stopped = campaign->cancelled.load(std::memory_order_relaxed)});
    }
  }
  std::sort(table.begin(), table.end(),
            [](const CampaignProgress& a, const CampaignProgress& b) {
              return a.sequence < b.sequence;
            });
  return table;
}

}  // namespace polaris::engine
