#include "server/worker.hpp"

#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"

namespace polaris::server {

Worker::Worker(WorkerOptions options)
    : options_(std::move(options)),
      listener_(options_.listen, options_.max_frame, "worker",
                /*flight_records=*/0, /*slow_request_us=*/0,
                [this](RequestKind kind, serialize::Reader& in, int) {
                  return serve(kind, in);
                }) {}

Listener::Reply Worker::serve(RequestKind kind, serialize::Reader& in) {
  switch (kind) {
    case RequestKind::kPing: return {serve_ping()};
    case RequestKind::kDesign: return {serve_design(in)};
    case RequestKind::kShard: return {serve_shards(in)};
    default:
      throw ServerError(Status::kBadRequest,
                        std::string("polaris worker: request kind '") +
                            request_kind_name(kind) +
                            "' not served by shard workers");
  }
}

Listener::Body Worker::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = "shard-worker";
  reply.requests_served = listener_.requests_served();
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_ping_reply(reply));
}

Listener::Body Worker::serve_design(serialize::Reader& in) {
  DesignRequest request = decode_design_request(in);
  static auto& installed =
      obs::Registry::global().counter("worker.designs_installed");
  {
    const std::lock_guard<std::mutex> lock(designs_mutex_);
    if (designs_.find(request.fingerprint) == designs_.end()) {
      designs_.emplace(request.fingerprint,
                       std::make_unique<Installed>(
                           Installed{std::move(request.design), {}, 0, {}}));
      installed.add();
    }
  }
  return nullptr;
}

std::shared_ptr<tvla::ShardRunner> Worker::runner_for(
    const ShardRequest& request) {
  const std::uint64_t config = core::config_fingerprint(request.config);
  const std::lock_guard<std::mutex> lock(designs_mutex_);
  const auto it = designs_.find(request.fingerprint);
  if (it == designs_.end()) {
    throw ServerError(Status::kUnknownDesign,
                      "polaris worker: no installed design with fingerprint " +
                          std::to_string(request.fingerprint));
  }
  Installed& installed = *it->second;
  // Compile once per design, and rebuild the runner from the plan only
  // when the config changes. Under the mutex: building twice concurrently
  // would be wasted work, and it is short next to a shard run. A request
  // still running on a replaced runner holds its own reference.
  if (!installed.runner || installed.config_fingerprint != config) {
    if (!installed.plan) {
      installed.plan = tvla::compile(installed.design.netlist);
    }
    installed.runner = std::make_shared<tvla::ShardRunner>(
        installed.plan, lib_,
        core::tvla_config_for(request.config, installed.design));
    installed.config_fingerprint = config;
  }
  return installed.runner;
}

Listener::Body Worker::serve_shards(serialize::Reader& in) {
  const ShardRequest request = decode_shard_request(in);
  // A config the library refuses (cycles_per_batch 0, say) is a bad
  // request, not a crash.
  try {
    core::validate(request.config);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  const auto runner = runner_for(request);
  if (request.shard_end > runner->shard_count()) {
    throw ServerError(Status::kBadRequest,
                      "polaris worker: shard range [" +
                          std::to_string(request.shard_begin) + ", " +
                          std::to_string(request.shard_end) +
                          ") exceeds plan shard count " +
                          std::to_string(runner->shard_count()));
  }
  static auto& shards_counter =
      obs::Registry::global().counter("worker.shards_run");
  const std::size_t count =
      static_cast<std::size_t>(request.shard_end - request.shard_begin);
  ShardReply reply;
  reply.shards.resize(count);
  try {
    // Shard fan-out on the shared pool, capped at the worker's threads.
    // Each run_shard is independent and const; results land in distinct
    // entries, and the pool rethrows the first failure here.
    engine::ThreadPool::shared().parallel_for(
        count, options_.threads, [&](std::size_t i) {
          const std::uint64_t shard = request.shard_begin + i;
          reply.shards[i] = {
              shard, runner->run_shard(static_cast<std::size_t>(shard))};
        });
  } catch (const std::exception& error) {
    throw ServerError(Status::kServerError, error.what());
  }
  shards_counter.add(count);
  shards_run_.fetch_add(count);
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_shard_reply(reply));
}

}  // namespace polaris::server
