#include "server/remote.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>

#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace polaris::server {

namespace {

/// Outstanding chunks per worker connection: the bound on a worker's
/// queue of shard requests.
constexpr std::size_t kPipelineDepth = 2;
/// Per-roundtrip deadline: a worker that exceeds it is treated as dead and
/// its chunks are requeued.
constexpr std::chrono::seconds kRoundtripTimeout{30};

obs::Counter& shards_out_counter() {
  static auto& counter = obs::Registry::global().counter("net.shards_out");
  return counter;
}
obs::Counter& installs_counter() {
  static auto& counter = obs::Registry::global().counter("net.installs");
  return counter;
}
obs::Counter& moments_in_counter() {
  static auto& counter = obs::Registry::global().counter("net.moments_in");
  return counter;
}
obs::Counter& bytes_counter() {
  static auto& counter = obs::Registry::global().counter("net.bytes");
  return counter;
}
obs::Counter& resends_counter() {
  static auto& counter = obs::Registry::global().counter("net.resends");
  return counter;
}

}  // namespace

/// What the feeders of one audit() call share: the scheduler they lease
/// from, and per design - in design order - its campaign and what a
/// request for it carries.
struct WorkerPool::Batch {
  engine::Scheduler& scheduler;
  std::span<const circuits::Design> designs;
  const core::PolarisConfig& config;
  std::vector<tvla::CampaignHandle> campaigns;  // per design
  engine::CampaignIds ids;                      // per design
  std::vector<std::uint64_t> fingerprints;      // per design

  /// The design index of the campaign a lease names.
  [[nodiscard]] std::size_t design_of(std::uint64_t campaign) const {
    return static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), campaign) - ids.begin());
  }
};

WorkerPool::WorkerPool(WorkerPoolOptions options)
    : options_(std::move(options)) {
  // trim: "--workers 'hostA:9411, hostB:9411'" is natural shell quoting.
  for (const auto& spec : util::split(options_.workers, ",")) {
    const auto trimmed = util::trim(spec);
    if (trimmed.empty()) continue;
    auto slot = std::make_unique<WorkerSlot>();
    slot->endpoint = net::parse_endpoint(std::string(trimmed));
    slot->display = net::to_string(slot->endpoint);
    workers_.push_back(std::move(slot));
  }
}

std::vector<WorkerHealthEntry> WorkerPool::health() const {
  std::vector<WorkerHealthEntry> entries;
  entries.reserve(workers_.size());
  for (const auto& slot : workers_) {
    WorkerHealthEntry entry;
    entry.endpoint = slot->display;
    entry.alive = slot->alive.load();
    entry.inflight = slot->inflight.load();
    entry.shards_done = slot->shards_done.load();
    entry.bytes_out = slot->bytes_out.load();
    entry.bytes_in = slot->bytes_in.load();
    entry.resends = slot->resends.load();
    entries.push_back(std::move(entry));
  }
  return entries;
}

WorkerPool::Totals WorkerPool::totals() const {
  Totals totals;
  for (const auto& slot : workers_) {
    totals.shards_out += slot->shards_done.load() + slot->inflight.load();
    totals.moments_in += slot->shards_done.load();
    totals.bytes += slot->bytes_out.load() + slot->bytes_in.load();
    totals.resends += slot->resends.load();
  }
  return totals;
}

std::vector<tvla::LeakageReport> WorkerPool::audit(
    std::span<const circuits::Design> designs,
    const techlib::TechLibrary& lib, const core::PolarisConfig& config,
    tvla::ProgressFn progress) {
  engine::Scheduler scheduler(options_.local_threads);
  return audit(scheduler, designs, lib, config, std::move(progress));
}

std::vector<tvla::LeakageReport> WorkerPool::audit(
    engine::Scheduler& scheduler, std::span<const circuits::Design> designs,
    const techlib::TechLibrary& lib, const core::PolarisConfig& config,
    tvla::ProgressFn progress) {
  core::validate(config);
  Batch batch{scheduler, designs, config, {}, {}, {}};
  for (const auto& design : designs) {
    batch.campaigns.push_back(tvla::submit(
        scheduler, core::audit_spec(design, lib, config, progress)));
    batch.ids.push_back(batch.campaigns.back().id());
    batch.fingerprints.push_back(core::design_fingerprint(design));
  }

  // Declared after what they use, so they join first - on an exception
  // path too - and before audit() returns (health() then reads settled
  // state).
  std::vector<std::jthread> feeders;
  feeders.reserve(workers_.size());
  for (const auto& slot : workers_) {
    slot->alive.store(true);
    feeders.emplace_back([this, &batch, raw = slot.get()] {
      feed_worker(*raw, batch);
    });
  }
  // The local lanes. drain(ids) returns once this audit's campaigns are
  // finalized; shards a lost worker never answered come back here.
  scheduler.drain(batch.ids);

  std::vector<tvla::LeakageReport> reports;
  reports.reserve(designs.size());
  for (auto& campaign : batch.campaigns) reports.push_back(campaign.get());
  return reports;
}

void WorkerPool::feed_worker(WorkerSlot& slot, Batch& batch) {
  using Lease = engine::Scheduler::Lease;
  // One entry per unanswered frame, in send order: a chunk's lease, or
  // empty for a design-install ack.
  std::deque<std::optional<Lease>> outstanding;
  int fd = -1;
  // Gives a lease back to the queue: the shards were sent but will never
  // be answered (or were answered unusably).
  const auto abandon = [&](const Lease& lease) {
    slot.resends.fetch_add(lease.end - lease.begin);
    resends_counter().add(lease.end - lease.begin);
    batch.scheduler.abandon(lease);
  };

  // The deadline is per roundtrip: armed when a reply wait starts,
  // checked by the probe at every socket I/O tick.
  std::chrono::steady_clock::time_point deadline;
  const CancelProbe probe = [&] {
    return std::chrono::steady_clock::now() > deadline;
  };

  try {
    fd = net::connect_endpoint(slot.endpoint);
    net::set_io_tick(fd);

    std::vector<std::uint8_t> payload;
    for (;;) {
      // Pipeline up to kPipelineDepth chunks: a slow worker's queue stays
      // bounded.
      std::size_t chunks_out = 0;
      for (const auto& pending : outstanding) {
        if (pending) ++chunks_out;
      }
      while (chunks_out < kPipelineDepth) {
        // Block for work only with nothing outstanding here: a feeder
        // with replies to read must stay free to read them. A waiting
        // lease returns empty once this audit's campaigns are finalized.
        auto lease = batch.scheduler.lease(batch.ids, kShardsPerChunk,
                                           /*wait=*/outstanding.empty());
        if (!lease) break;
        const std::size_t design = batch.design_of(lease->campaign);
        deadline = std::chrono::steady_clock::now() + kRoundtripTimeout;
        // Until the lease lands in `outstanding`, the outer handler
        // cannot see this lease: give it back on any send failure (torn
        // connection, deadline probe firing mid-EAGAIN) before withdrawing.
        try {
          const std::uint64_t fingerprint = batch.fingerprints[design];
          bool needs_install = false;
          {
            const std::lock_guard<std::mutex> lock(slot.installed_mutex);
            needs_install = slot.installed.insert(fingerprint).second;
          }
          // The worker serves a connection's frames in order, so the
          // install lands before the shard request that follows it.
          if (needs_install) {
            const auto install = encode_design_request(batch.designs[design]);
            write_frame(fd, install, probe);
            slot.bytes_out.fetch_add(install.size());
            bytes_counter().add(install.size());
            installs_counter().add();
            outstanding.emplace_back();
          }
          ShardRequest request;
          request.fingerprint = fingerprint;
          request.config = batch.config;
          request.shard_begin = lease->begin;
          request.shard_end = lease->end;
          const auto frame = encode_shard_request(request);
          write_frame(fd, frame, probe);
          slot.bytes_out.fetch_add(frame.size());
          bytes_counter().add(frame.size());
          shards_out_counter().add(lease->end - lease->begin);
          outstanding.push_back(lease);
        } catch (...) {
          abandon(*lease);
          throw;
        }
        slot.inflight.fetch_add(1);
        ++chunks_out;
      }
      if (outstanding.empty()) break;  // the audit has no work left

      // One reply, FIFO: the worker serves a connection's frames in
      // order, so the front pending is always the one being answered.
      deadline = std::chrono::steady_clock::now() + kRoundtripTimeout;
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, probe);
      if (result != FrameResult::kFrame) {
        throw std::runtime_error("polaris net: worker '" + slot.display +
                                 "' closed the connection");
      }
      const std::size_t reply_bytes = payload.size();
      Response response = decode_response(std::move(payload));
      const std::optional<Lease> pending = outstanding.front();
      outstanding.pop_front();
      slot.bytes_in.fetch_add(reply_bytes);
      bytes_counter().add(reply_bytes);
      if (!pending) {  // design-install ack
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' rejected design install: " +
                                   response.message);
        }
        continue;
      }
      const Lease& lease = *pending;
      slot.inflight.fetch_sub(1);
      if (response.status == Status::kUnknownDesign) {
        // The worker restarted since the install (or another audit's
        // install has not landed yet): forget the design so the next
        // send installs it, and give the lease back.
        {
          const std::lock_guard<std::mutex> lock(slot.installed_mutex);
          slot.installed.erase(
              batch.fingerprints[batch.design_of(lease.campaign)]);
        }
        abandon(lease);
        continue;
      }
      // The lease left `outstanding` above, so a throw from here on must
      // abandon it itself. Validate the WHOLE reply first and complete
      // only after: nothing from a bad reply ever reaches the merge, even
      // for a campaign that already stopped and will drop it.
      try {
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' failed shard request: " +
                                   response.message);
        }
        ShardReply reply = decode_shard_reply(response.body);
        if (reply.shards.size() != lease.end - lease.begin) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' answered the wrong shard count");
        }
        // The worker fills a chunk's shards in ascending order, so entry
        // i must be exactly begin + i - stricter than a range check on
        // purpose: a duplicate in-range index would land one shard twice
        // and leave another unanswered. Likewise every block must have
        // the campaign's own layout: the merge indexes a block by the
        // totals' group counts, so a short one is read out of bounds.
        const tvla::CampaignHandle& campaign =
            batch.campaigns[batch.design_of(lease.campaign)];
        for (std::size_t i = 0; i < reply.shards.size(); ++i) {
          if (reply.shards[i].shard != lease.begin + i) {
            throw std::runtime_error("polaris net: worker '" + slot.display +
                                     "' answered an unrequested shard");
          }
          if (!campaign.fits(reply.shards[i].moments)) {
            throw std::runtime_error("polaris net: worker '" + slot.display +
                                     "' answered moments of the wrong shape");
          }
        }
        for (auto& result_in : reply.shards) {
          batch.scheduler.complete(lease,
                                   static_cast<std::size_t>(result_in.shard),
                                   std::move(result_in.moments));
        }
        slot.shards_done.fetch_add(reply.shards.size());
        moments_in_counter().add(reply.shards.size());
      } catch (...) {
        abandon(lease);
        throw;
      }
    }
  } catch (const std::exception& error) {
    // Worker lost (unreachable, timed out, torn connection, or a failed
    // request): abandon every unanswered lease to the surviving lanes and
    // withdraw from this audit. The shards may have executed remotely -
    // harmless, re-running a shard yields the same bits and nothing from
    // this worker was completed for them.
    for (const auto& pending : outstanding) {
      if (!pending) continue;
      slot.inflight.fetch_sub(1);
      abandon(*pending);
    }
    {
      const std::lock_guard<std::mutex> lock(slot.installed_mutex);
      slot.installed.clear();
    }
    slot.alive.store(false);
    obs::log("net", "dropping worker '" + slot.display + "': " + error.what());
  }
  if (fd >= 0) ::close(fd);
}

}  // namespace polaris::server
