#include "server/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <future>
#include <optional>
#include <thread>

#include "engine/scheduler.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace polaris::server {

namespace {

/// Client-side socket poll cadence: SO_*TIMEO expiry re-checks the cancel
/// probe, which enforces the per-roundtrip deadline.
constexpr int kFeederPollMs = 100;

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

/// What the feeders of one audit() call share: the private scheduler they
/// lease from, and per campaign - one per design, submitted in design
/// order, so a lease's campaign sequence IS the design index - what a
/// request carries and what its reply is checked against.
struct WorkerPool::Batch {
  /// The moments layout each campaign's shards must have; a worker reply
  /// is checked against it before any store (the merge indexes by it).
  struct Shape {
    std::size_t groups = 0;
    std::size_t multis = 0;
  };

  engine::Scheduler& scheduler;
  std::span<const circuits::Design> designs;
  const core::PolarisConfig& config;
  std::vector<std::uint64_t> fingerprints;  // per design
  std::vector<Shape> shapes;                // per design
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
  core::validate(config);
  // A private scheduler, not a shared one: drain() waits out every
  // outstanding lease, so it must only see this audit's feeders.
  engine::Scheduler scheduler(options_.local_threads);
  Batch batch{scheduler, designs, config, {}, {}};
  std::vector<std::future<tvla::LeakageReport>> pending;
  pending.reserve(designs.size());
  for (const auto& design : designs) {
    auto campaign = std::make_shared<tvla::ShardRunner>(
        design.netlist, lib, core::tvla_config_for(config, design));
    const tvla::CampaignMoments empty = campaign->empty_moments();
    batch.shapes.push_back({empty.group_count(), empty.multi_group_count()});
    batch.fingerprints.push_back(core::design_fingerprint(design));
    pending.push_back(tvla::submit_campaign(scheduler, std::move(campaign),
                                            progress, design.name));
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
  // The local lanes. drain() returns once nothing is queued or leased;
  // shards a lost worker never answered come back here.
  scheduler.drain();

  std::vector<tvla::LeakageReport> reports;
  reports.reserve(designs.size());
  for (auto& future : pending) reports.push_back(future.get());
  return reports;
}

void WorkerPool::feed_worker(WorkerSlot& slot, Batch& batch) {
  using Lease = engine::Scheduler::Lease;
  struct Pending {
    std::optional<Lease> lease;  // empty for a design-install ack
    std::size_t bytes = 0;       // request payload size (admission control)
  };
  std::deque<Pending> outstanding;
  std::size_t inflight_bytes = 0;
  int fd = -1;
  // Gives a lease back to the queue: the shards were sent but will never
  // be answered (or were answered unusably).
  const auto abandon = [&](const Lease& lease) {
    slot.resends.fetch_add(lease.end - lease.begin);
    resends_counter().add(lease.end - lease.begin);
    batch.scheduler.abandon(lease);
  };

  // The deadline is per roundtrip: armed when a reply wait starts,
  // checked by the probe on every socket-timeout tick.
  const bool has_deadline = options_.timeout_ms != 0;
  std::chrono::steady_clock::time_point deadline;
  const CancelProbe probe = [&] {
    return has_deadline && std::chrono::steady_clock::now() > deadline;
  };

  try {
    fd = net::connect_endpoint(slot.endpoint);
    timeval timeout{};
    timeout.tv_usec = kFeederPollMs * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    std::vector<std::uint8_t> payload;
    for (;;) {
      // Admission control: pipeline up to `pipeline_depth` chunks, but
      // never more than `max_inflight_bytes` of unanswered request
      // payload - a slow worker's queue stays bounded.
      std::size_t chunks_out = 0;
      for (const auto& pending : outstanding) {
        if (pending.lease) ++chunks_out;
      }
      while (chunks_out < options_.pipeline_depth &&
             inflight_bytes < options_.max_inflight_bytes) {
        // Block for work only with nothing outstanding here: a feeder
        // with replies to read must stay free to read them. A waiting
        // lease returns empty once nothing is queued or leased anywhere.
        auto lease = batch.scheduler.lease(kShardsPerChunk,
                                           /*wait=*/outstanding.empty());
        if (!lease) break;
        const std::size_t design = lease->campaign;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.timeout_ms);
        // Until the Pending lands in `outstanding`, the outer handler
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
            outstanding.push_back(Pending{});
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
          inflight_bytes += frame.size();
          outstanding.push_back(Pending{lease, frame.size()});
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
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(options_.timeout_ms);
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, probe);
      if (result != FrameResult::kFrame) {
        throw std::runtime_error("polaris net: worker '" + slot.display +
                                 "' closed the connection");
      }
      const std::size_t reply_bytes = payload.size();
      Response response = decode_response(std::move(payload));
      const Pending pending = std::move(outstanding.front());
      outstanding.pop_front();
      slot.bytes_in.fetch_add(reply_bytes);
      bytes_counter().add(reply_bytes);
      if (!pending.lease) {  // design-install ack
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' rejected design install: " +
                                   response.message);
        }
        continue;
      }
      const Lease& lease = *pending.lease;
      inflight_bytes -= pending.bytes;
      slot.inflight.fetch_sub(1);
      if (response.status == Status::kUnknownDesign) {
        // The worker restarted since the install (or another audit's
        // install has not landed yet): forget the design so the next
        // send installs it, and give the lease back.
        {
          const std::lock_guard<std::mutex> lock(slot.installed_mutex);
          slot.installed.erase(batch.fingerprints[lease.campaign]);
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
        const Batch::Shape shape = batch.shapes[lease.campaign];
        for (std::size_t i = 0; i < reply.shards.size(); ++i) {
          if (reply.shards[i].shard != lease.begin + i) {
            throw std::runtime_error("polaris net: worker '" + slot.display +
                                     "' answered an unrequested shard");
          }
          const tvla::CampaignMoments& moments = reply.shards[i].moments;
          if (moments.group_count() != shape.groups ||
              moments.multi_group_count() != shape.multis) {
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
      if (!pending.lease) continue;
      slot.inflight.fetch_sub(1);
      abandon(*pending.lease);
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
