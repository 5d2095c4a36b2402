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

void Scheduler::enqueue(std::shared_ptr<CampaignTask> campaign) {
  static auto& campaigns = obs::Registry::global().counter("sched.campaigns");
  static auto& shards = obs::Registry::global().counter("sched.shards");
  static auto& queue_at_submit =
      obs::Registry::global().histogram("sched.queue_at_submit");
  campaign->enqueue_ns = obs::now_ns();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    campaign->sequence = next_sequence_++;
    if (campaign->shard_count != 0) {
      active_.push_back(campaign);
      for (std::size_t shard = 0; shard < campaign->shard_count; ++shard) {
        queue_.push(QueueEntry{campaign, shard});
      }
      // LPT queue length as seen by this submit, including its own shards.
      queue_at_submit.record(queue_.size());
    }
  }
  if (campaign->shard_count == 0) {
    campaign->finish();  // ready future, nothing queued
    return;
  }
  campaigns.add();
  shards.add(campaign->shard_count);
  idle_cv_.notify_all();
}

bool Scheduler::run_next() {
  static auto& shard_us = obs::Registry::global().histogram("sched.shard_us");
  QueueEntry entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    entry = queue_.top();
    queue_.pop();
  }
  if (entry.campaign->decided()) {
    // Skip the body (its state could never merge past the frozen ceiling)
    // so the pool slot goes to the next undecided campaign in the queue.
    if (entry.campaign->cancelled.load(std::memory_order_relaxed)) {
      shards_cancelled_counter().add();
    }
  } else {
    obs::Span span("shard", "sched");
    span.arg("seq", entry.campaign->sequence)
        .arg("shard", static_cast<std::uint64_t>(entry.shard));
    const std::int64_t t0 = obs::now_ns();
    entry.campaign->run_shard(entry.shard);
    shard_us.record(static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  }
  retire(entry.campaign, /*leased=*/false);
  return true;
}

void Scheduler::retire(const std::shared_ptr<CampaignTask>& campaign,
                       bool leased) {
  static auto& campaign_us =
      obs::Registry::global().histogram("sched.campaign_us");
  bool last = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (leased && --leased_ == 0) idle_cv_.notify_all();
    last = --campaign->remaining == 0;
    if (last) {
      // Retire from the progress table before finish() runs: a status poll
      // never reports a campaign whose future is about to be ready with a
      // stale shard count.
      active_.erase(std::find(active_.begin(), active_.end(), campaign));
    }
  }
  // Finalizing outside the lock keeps other lanes popping.
  if (last) {
    obs::Span span("finish", "sched");
    span.arg("seq", campaign->sequence);
    campaign->finish();
    // Campaign makespan: submit-to-finalized, queueing included.
    campaign_us.record(static_cast<std::uint64_t>(
        (obs::now_ns() - campaign->enqueue_ns) / 1000));
  }
}

void Scheduler::drain() {
  // Loop: a parallel_for covers the shards queued at its start; campaigns
  // submitted, or shards abandoned, while it runs are picked up by the
  // next pass.
  for (;;) {
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      idle_cv_.wait(lock, [this] { return !queue_.empty() || leased_ == 0; });
      n = queue_.size();
    }
    if (n == 0) return;
    if (threads_ <= 1) {
      while (run_next()) {
      }
    } else {
      ThreadPool::shared().parallel_for(n, threads_,
                                        [this](std::size_t) { run_next(); });
    }
  }
}

std::optional<Scheduler::Lease> Scheduler::lease(std::size_t max_shards,
                                                 bool wait) {
  for (;;) {
    std::shared_ptr<CampaignTask> skipped;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wait) {
        idle_cv_.wait(lock,
                      [this] { return !queue_.empty() || leased_ == 0; });
      }
      if (queue_.empty()) return std::nullopt;
      QueueEntry entry = queue_.top();
      queue_.pop();
      if (!entry.campaign->decided()) {
        Lease lease;
        lease.campaign = entry.campaign->sequence;
        lease.begin = entry.shard;
        lease.end = entry.shard + 1;
        while (lease.end - lease.begin < max_shards && !queue_.empty() &&
               queue_.top().campaign == entry.campaign &&
               queue_.top().shard == lease.end) {
          queue_.pop();
          ++lease.end;
        }
        for (std::size_t s = lease.begin; s < lease.end; ++s) {
          entry.campaign->leased[s] = true;
        }
        leased_ += lease.end - lease.begin;
        lease.task = std::move(entry.campaign);
        return lease;
      }
      skipped = std::move(entry.campaign);
    }
    if (skipped->cancelled.load(std::memory_order_relaxed)) {
      shards_cancelled_counter().add();
    }
    retire(skipped, /*leased=*/false);
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
    for (std::size_t s = lease.begin; s < lease.end; ++s) {
      if (!lease.task->leased[s]) continue;
      lease.task->leased[s] = false;
      --leased_;
      queue_.push(QueueEntry{lease.task, s});
    }
  }
  idle_cv_.notify_all();
}

std::size_t Scheduler::pending_shards() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::vector<CampaignProgress> Scheduler::progress() const {
  const std::int64_t now = obs::now_ns();
  std::vector<CampaignProgress> table;
  const std::lock_guard<std::mutex> lock(mutex_);
  table.reserve(active_.size());
  for (const auto& campaign : active_) {
    CampaignProgress row;
    row.label = campaign->label;
    row.sequence = campaign->sequence;
    row.shards_total = campaign->shard_count;
    row.shards_done = campaign->shard_count - campaign->remaining;
    row.age_us =
        static_cast<std::uint64_t>((now - campaign->enqueue_ns) / 1000);
    row.stopped = campaign->cancelled.load(std::memory_order_relaxed);
    table.push_back(std::move(row));
  }
  // queue_position = rank in the LPT pop order (weight desc, sequence asc)
  // among the active campaigns - the order their remaining shards drain.
  std::vector<std::size_t> order(table.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (active_[a]->weight != active_[b]->weight) {
      return active_[a]->weight > active_[b]->weight;
    }
    return active_[a]->sequence < active_[b]->sequence;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    table[order[rank]].queue_position = rank;
  }
  return table;
}

}  // namespace polaris::engine
