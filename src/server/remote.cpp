#include "server/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>

#include "obs/obs.hpp"

namespace polaris::server {

namespace {

/// Client-side socket poll cadence: SO_*TIMEO expiry re-checks the cancel
/// probe, which enforces the per-roundtrip deadline and batch completion.
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

/// Shared state of one audit() call. Lanes pull chunks from the queue;
/// completed shard moments land in per-(design, shard) slots (distinct
/// objects, so concurrent stores never race); `remaining` counts shards
/// still unstored and flips `done` at zero.
struct WorkerPool::Batch {
  struct Chunk {
    std::size_t design = 0;
    std::size_t begin = 0;  // shard range [begin, end)
    std::size_t end = 0;
  };

  /// The moments layout each campaign's shards must have; a worker reply
  /// is checked against it before any store (the merge indexes by it).
  struct Shape {
    std::size_t groups = 0;
    std::size_t multis = 0;
  };

  std::span<const circuits::Design> designs;
  const core::PolarisConfig* config = nullptr;
  std::vector<std::uint64_t> fingerprints;  // per design
  std::vector<Shape> shapes;                // per design
  std::vector<std::unique_ptr<tvla::ShardRunner>> runners;
  std::vector<std::vector<std::optional<tvla::CampaignMoments>>> slots;

  std::mutex queue_mutex;
  std::deque<Chunk> queue;
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  std::optional<Chunk> pop() {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    if (queue.empty()) return std::nullopt;
    Chunk chunk = queue.front();
    queue.pop_front();
    return chunk;
  }

  /// Requeues at the FRONT: a dead worker's chunks are the oldest
  /// outstanding work and should not wait behind the whole tail.
  void requeue(const Chunk& chunk) {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    queue.push_front(chunk);
  }

  void store(std::size_t design, std::size_t shard,
             tvla::CampaignMoments moments) {
    slots[design][shard] = std::move(moments);
    if (remaining.fetch_sub(1) == 1) done.store(true);
  }

  void fail(std::exception_ptr error_in) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::move(error_in);
    }
    failed.store(true);
    done.store(true);  // release every lane
  }

  [[nodiscard]] bool finished() const {
    return done.load() || failed.load();
  }
};

WorkerPool::WorkerPool(WorkerPoolOptions options)
    : options_(std::move(options)) {
  std::string spec;
  for (std::size_t i = 0; i <= options_.workers.size(); ++i) {
    if (i == options_.workers.size() || options_.workers[i] == ',') {
      if (!spec.empty()) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->endpoint = net::parse_endpoint(spec);
        slot->display = net::to_string(slot->endpoint);
        workers_.push_back(std::move(slot));
        spec.clear();
      }
    } else {
      spec.push_back(options_.workers[i]);
    }
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
  Batch batch;
  batch.designs = designs;
  batch.config = &config;

  // Compile every campaign once, up front: the coordinator needs each
  // ShardRunner anyway for the merge replay, checkpoints, and finalize,
  // and cost_weight() drives the LPT chunk order below.
  batch.runners.reserve(designs.size());
  batch.fingerprints.reserve(designs.size());
  batch.shapes.reserve(designs.size());
  batch.slots.resize(designs.size());
  std::size_t total_shards = 0;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    batch.fingerprints.push_back(core::design_fingerprint(designs[d]));
    batch.runners.push_back(std::make_unique<tvla::ShardRunner>(
        designs[d].netlist, lib, core::tvla_config_for(config, designs[d])));
    const tvla::CampaignMoments empty = batch.runners[d]->empty_moments();
    batch.shapes.push_back({empty.group_count(), empty.multi_group_count()});
    batch.slots[d].resize(batch.runners[d]->shard_count());
    total_shards += batch.runners[d]->shard_count();
  }
  batch.remaining.store(total_shards);
  if (total_shards == 0) batch.done.store(true);

  // LPT chunk order: heaviest campaign first (ties by input order), then
  // ascending shard ranges within a campaign - the same weight-desc /
  // sequence-asc / shard-asc policy the local scheduler queue uses.
  std::vector<std::size_t> order(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) order[d] = d;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return batch.runners[a]->cost_weight() >
                            batch.runners[b]->cost_weight();
                   });
  for (const std::size_t d : order) {
    const std::size_t shards = batch.runners[d]->shard_count();
    for (std::size_t begin = 0; begin < shards; begin += kShardsPerChunk) {
      Batch::Chunk chunk;
      chunk.design = d;
      chunk.begin = begin;
      chunk.end = std::min(begin + kShardsPerChunk, shards);
      batch.queue.push_back(chunk);
    }
  }

  // One feeder thread per remote worker, plus local lanes. At least one
  // local lane always runs: it is the completion guarantee - any chunk a
  // dead worker returns to the queue can be executed in-process.
  std::vector<std::thread> lanes;
  for (const auto& slot : workers_) {
    slot->alive.store(true);
    lanes.emplace_back([this, &batch, raw = slot.get()] {
      feed_worker(*raw, batch);
    });
  }
  std::size_t local = options_.local_threads != 0
                          ? options_.local_threads
                          : std::thread::hardware_concurrency();
  local = std::max<std::size_t>(1, local);
  for (std::size_t t = 0; t < local; ++t) {
    lanes.emplace_back([this, &batch] { run_local_lane(batch); });
  }
  for (auto& lane : lanes) lane.join();
  if (batch.failed.load()) {
    const std::lock_guard<std::mutex> lock(batch.error_mutex);
    std::rethrow_exception(batch.error);
  }

  // Merge replay: EXACTLY the scheduler's checkpointed ascending merge
  // (scheduler.hpp run_shard) - merge one shard, advance the cursor, fire
  // at most one checkpoint per advance, stop merging the moment one
  // decides. Byte-identity with single-host execution rests on this loop.
  std::vector<tvla::LeakageReport> reports;
  reports.reserve(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    auto& runner = *batch.runners[d];
    if (progress) runner.set_progress(progress);
    const std::size_t shard_count = runner.shard_count();
    const auto& checkpoints = runner.checkpoint_shards();
    tvla::CampaignMoments total = runner.empty_moments();
    std::size_t merged = 0;
    std::size_t next_checkpoint = 0;
    while (merged < shard_count) {
      if (merged == 0) {
        total = std::move(*batch.slots[d][0]);
      } else {
        total.merge(*batch.slots[d][merged]);
      }
      ++merged;
      if (next_checkpoint < checkpoints.size() &&
          merged == checkpoints[next_checkpoint]) {
        ++next_checkpoint;
        if (runner.evaluate_checkpoint(total, merged)) break;
      }
    }
    reports.push_back(runner.finalize(total));
  }
  return reports;
}

void WorkerPool::run_local_lane(Batch& batch) {
  for (;;) {
    const auto chunk = batch.pop();
    if (!chunk) {
      if (batch.finished()) return;
      // Empty queue but unstored shards: a remote worker still holds
      // them, and might die and requeue - stay available.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    try {
      auto& runner = *batch.runners[chunk->design];
      for (std::size_t shard = chunk->begin; shard < chunk->end; ++shard) {
        if (batch.failed.load()) return;
        batch.store(chunk->design, shard, runner.run_shard(shard));
      }
    } catch (...) {
      batch.fail(std::current_exception());
      return;
    }
  }
}

void WorkerPool::feed_worker(WorkerSlot& slot, Batch& batch) {
  struct Pending {
    bool is_chunk = false;
    Batch::Chunk chunk;       // valid when is_chunk
    std::size_t bytes = 0;    // request payload size (admission control)
  };
  std::deque<Pending> outstanding;
  std::size_t inflight_bytes = 0;
  int fd = -1;

  // The deadline is per roundtrip: armed when a reply wait starts,
  // checked by the probe on every socket-timeout tick.
  const bool has_deadline = options_.timeout_ms != 0;
  std::chrono::steady_clock::time_point deadline;
  const CancelProbe probe = [&] {
    if (batch.failed.load()) return true;
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
      for (const auto& pending : outstanding) chunks_out += pending.is_chunk;
      while (chunks_out < options_.pipeline_depth &&
             inflight_bytes < options_.max_inflight_bytes) {
        const auto chunk = batch.pop();
        if (!chunk) break;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.timeout_ms);
        // Between pop and the Pending landing in `outstanding`, the chunk
        // is invisible to the outer requeue loop: if a send fails here
        // (torn connection, deadline probe firing mid-EAGAIN), give the
        // chunk back before withdrawing, or Batch::remaining never
        // reaches zero and every surviving lane spins forever.
        try {
          const std::uint64_t fingerprint = batch.fingerprints[chunk->design];
          bool needs_install = false;
          {
            const std::lock_guard<std::mutex> lock(slot.installed_mutex);
            needs_install = slot.installed.insert(fingerprint).second;
          }
          // The worker serves a connection's frames in order, so the
          // install lands before the shard request that follows it.
          if (needs_install) {
            const auto install =
                encode_design_request(batch.designs[chunk->design]);
            write_frame(fd, install, probe);
            slot.bytes_out.fetch_add(install.size());
            bytes_counter().add(install.size());
            installs_counter().add();
            outstanding.push_back(Pending{});
          }
          ShardRequest request;
          request.fingerprint = fingerprint;
          request.config = *batch.config;
          request.shard_begin = chunk->begin;
          request.shard_end = chunk->end;
          const auto frame = encode_shard_request(request);
          write_frame(fd, frame, probe);
          slot.bytes_out.fetch_add(frame.size());
          bytes_counter().add(frame.size());
          shards_out_counter().add(chunk->end - chunk->begin);
          Pending pending;
          pending.is_chunk = true;
          pending.chunk = *chunk;
          pending.bytes = frame.size();
          inflight_bytes += frame.size();
          outstanding.push_back(std::move(pending));
        } catch (...) {
          slot.resends.fetch_add(chunk->end - chunk->begin);
          resends_counter().add(chunk->end - chunk->begin);
          batch.requeue(*chunk);
          throw;
        }
        slot.inflight.fetch_add(1);
        ++chunks_out;
      }
      if (outstanding.empty()) {
        if (batch.finished()) break;
        // Queue drained but shards remain elsewhere; new chunks can
        // reappear if another worker dies.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }

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
      const Pending pending = outstanding.front();
      outstanding.pop_front();
      slot.bytes_in.fetch_add(reply_bytes);
      bytes_counter().add(reply_bytes);
      if (!pending.is_chunk) {  // design-install ack
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' rejected design install: " +
                                   response.message);
        }
        continue;
      }
      inflight_bytes -= pending.bytes;
      slot.inflight.fetch_sub(1);
      if (response.status == Status::kUnknownDesign) {
        // The worker restarted since the install (or another audit's
        // install has not landed yet): forget the design so the next
        // send installs it, and give the chunk back.
        {
          const std::lock_guard<std::mutex> lock(slot.installed_mutex);
          slot.installed.erase(batch.fingerprints[pending.chunk.design]);
        }
        slot.resends.fetch_add(pending.chunk.end - pending.chunk.begin);
        resends_counter().add(pending.chunk.end - pending.chunk.begin);
        batch.requeue(pending.chunk);
        continue;
      }
      // The chunk left `outstanding` above, so from here until its
      // shards are stored, a throw would strand it in neither the
      // outstanding list nor the queue - the campaign would never
      // complete. Validate the WHOLE reply first, store only after
      // (store never throws), and requeue the chunk on any failure.
      try {
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' failed shard request: " +
                                   response.message);
        }
        ShardReply reply = decode_shard_reply(response.body);
        if (reply.shards.size() !=
            pending.chunk.end - pending.chunk.begin) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' answered the wrong shard count");
        }
        // The worker fills a chunk's shards in ascending order, so entry
        // i must be exactly begin + i. This is stricter than a range
        // check on purpose: a duplicate in-range index would
        // double-store one slot and double-decrement Batch::remaining,
        // flipping `done` with shards still unstored - then the merge
        // replay dereferences an empty slot. Likewise every block must
        // have the campaign's own layout: the merge indexes a block by
        // the totals' group counts, so a short one is read out of
        // bounds. Network input never gets to do either, which is why
        // validation completes before any store.
        const Batch::Shape shape = batch.shapes[pending.chunk.design];
        for (std::size_t i = 0; i < reply.shards.size(); ++i) {
          if (reply.shards[i].shard != pending.chunk.begin + i) {
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
          batch.store(pending.chunk.design,
                      static_cast<std::size_t>(result_in.shard),
                      std::move(result_in.moments));
        }
        slot.shards_done.fetch_add(reply.shards.size());
        moments_in_counter().add(reply.shards.size());
      } catch (...) {
        slot.resends.fetch_add(pending.chunk.end - pending.chunk.begin);
        resends_counter().add(pending.chunk.end - pending.chunk.begin);
        batch.requeue(pending.chunk);
        throw;
      }
    }
  } catch (const std::exception&) {
    // Worker lost (unreachable, timed out, torn connection, or a failed
    // request): requeue every unacknowledged chunk for the surviving
    // lanes and withdraw from this batch. The chunks may have executed
    // remotely - that is harmless, re-running a shard yields the same
    // bits and only one copy is ever stored (nothing was stored here).
    for (const auto& pending : outstanding) {
      if (!pending.is_chunk) continue;
      slot.inflight.fetch_sub(1);
      slot.resends.fetch_add(pending.chunk.end - pending.chunk.begin);
      resends_counter().add(pending.chunk.end - pending.chunk.begin);
      batch.requeue(pending.chunk);
    }
    {
      const std::lock_guard<std::mutex> lock(slot.installed_mutex);
      slot.installed.clear();
    }
    slot.alive.store(false);
  }
  if (fd >= 0) ::close(fd);
}

}  // namespace polaris::server
