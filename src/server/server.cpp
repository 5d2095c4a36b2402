#include "server/server.hpp"

#include <atomic>
#include <bit>
#include <initializer_list>
#include <utility>

#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"

namespace polaris::server {

namespace {

/// Live-operations constants: the metrics sampler's period, the requests
/// the flight recorder keeps for `client status`, and the service time
/// above which a request is logged as slow.
constexpr std::size_t kSampleIntervalMs = 1000;
constexpr std::size_t kFlightRecords = 64;
constexpr std::uint64_t kSlowRequestUs = 1'000'000;

std::uint64_t combine_all(std::uint64_t key,
                          std::initializer_list<std::uint64_t> values) {
  for (const auto value : values) key = util::fnv1a_u64(key, value);
  return key;
}

/// A design's cache identity, computed from its source without building
/// it: the length-prefixed name, then the bit pattern of the scale for a
/// suite design or a hash of the file's bytes for a .v path. A suite
/// design is a pure function of (name, scale) and a .v design of (path,
/// bytes), so equal identities build equal designs. A name ending in ".v"
/// is always a file, so the two forms never share a name.
std::uint64_t source_identity(const circuits::DesignSource& source) {
  const std::uint64_t name = util::fnv1a(
      source.name, util::fnv1a_u64(util::kFnv1aOffset, source.name.size()));
  return util::fnv1a_u64(
      name, source.from_file ? util::fnv1a(source.verilog)
                             : std::bit_cast<std::uint64_t>(source.scale));
}

/// The coordinator for --workers, or null when audits stay local.
std::unique_ptr<WorkerPool> make_pool(const ServerOptions& options) {
  if (options.workers.empty()) return nullptr;
  WorkerPoolOptions pool_options;
  pool_options.workers = options.workers;
  pool_options.max_frame = options.max_frame;
  return std::make_unique<WorkerPool>(std::move(pool_options));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      start_mono_ns_(obs::now_ns()),
      polaris_(core::Polaris::load_bundle(options_.bundle_path, &info_)),
      scheduler_(options_.threads),
      pool_(make_pool(options_)),
      cache_(options_.cache_capacity),
      sampler_(obs::Registry::global(),
               obs::Sampler::Options{kSampleIntervalMs, options_.metrics_file}),
      listener_(options_.socket_path, options_.max_frame, "server",
                kFlightRecords, kSlowRequestUs,
                [this](RequestKind kind, serialize::Reader& in, int fd) {
                  return serve(kind, in, fd);
                }) {}

void Server::start() {
  if (!options_.metrics_file.empty()) sampler_.start();
  listener_.start();
}

void Server::request_stop() { listener_.request_stop(); }

void Server::wait() {
  listener_.wait();
  // Last: the sampler outlives the handlers so the final intervals (the
  // drain itself included) still land in the metrics file.
  sampler_.stop();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.requests_served = listener_.requests_served();
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_entries = cache_.size();
  stats.cache_bytes = cache_.bytes();
  stats.connections = listener_.connections_accepted();
  return stats;
}

Listener::Reply Server::serve(RequestKind kind, serialize::Reader& in,
                              int fd) {
  switch (kind) {
    case RequestKind::kPing: return {serve_ping()};
    case RequestKind::kAudit: return audit_reply(decode_audit_request(in), {});
    case RequestKind::kAuditStream: return serve_audit_stream(fd, in);
    case RequestKind::kMask: return serve_mask(in);
    case RequestKind::kScore: return serve_score(in);
    case RequestKind::kStats: return {serve_stats()};
    case RequestKind::kStatus: return {serve_status()};
    default:
      // Worker-plane requests (design, shard): the daemon is a
      // coordinator, not a shard worker - point the peer at
      // `polaris_cli worker`.
      throw ServerError(Status::kBadRequest,
                        std::string("polaris serve: request kind '") +
                            request_kind_name(kind) +
                            "' is served by shard workers "
                            "(polaris_cli worker), not the daemon");
  }
}

core::ResultCache::Body Server::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = info_.model_name;
  reply.config_fingerprint = info_.config_fingerprint;
  reply.requests_served = listener_.requests_served();
  reply.cache_hits = cache_.hits();
  reply.cache_entries = cache_.size();
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_ping_reply(reply));
}

core::ResultCache::Body Server::serve_stats() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  StatsReply reply;
  reply.model_name = info_.model_name;
  reply.config_fingerprint = info_.config_fingerprint;
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  reply.requests_served = listener_.requests_served();
  reply.connections = listener_.connections_accepted();
  reply.snapshot = obs::Registry::global().snapshot();
  reply.uptime_ms = static_cast<std::uint64_t>(
      (obs::now_ns() - start_mono_ns_) / 1'000'000);
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_stats_reply(reply));
}

core::ResultCache::Body Server::serve_status() {
  const std::int64_t now = obs::now_ns();
  StatusReply reply;
  reply.model_name = info_.model_name;
  reply.requests_served = listener_.requests_served();
  reply.connections_total = listener_.connections_accepted();
  reply.connections_active = listener_.connections_active();
  reply.uptime_ms =
      static_cast<std::uint64_t>((now - start_mono_ns_) / 1'000'000);
  reply.sample_interval_ms =
      options_.metrics_file.empty() ? 0 : kSampleIntervalMs;
  reply.samples = sampler_.samples();
  reply.inflight = listener_.inflight(now);
  reply.campaigns = scheduler_.progress();
  if (pool_) reply.workers = pool_->health();
  const auto records = listener_.recorder().recent();
  reply.recent.reserve(records.size());
  for (const auto& record : records) {
    FlightRecordEntry entry;
    entry.kind = record.kind;
    entry.status = record.status;
    entry.cache_hit = record.cache_hit;
    entry.bytes = record.bytes;
    entry.duration_us = record.duration_us;
    entry.age_us =
        static_cast<std::uint64_t>((now - record.completed_ns) / 1000);
    reply.recent.push_back(entry);
  }
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_status_reply(reply));
}

Listener::Reply Server::serve_audit_stream(int fd, serialize::Reader& in) {
  const AuditRequest request = decode_audit_request(in);
  static auto& partials_out =
      obs::Registry::global().counter("server.audit_partials_out");
  // Partials are best-effort: a send failure must not fail the campaign
  // (the final reply still lands in the cache for the next caller), so the
  // first failed write just stops further partials.
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const std::uint64_t traces_total = request.config.tvla.traces;
  tvla::ProgressFn progress =
      [this, fd, failed, traces_total](const tvla::LeakageReport& partial,
                                       std::size_t traces_done) {
        if (failed->load()) return;
        AuditPartial frame;
        frame.traces_done = traces_done;
        frame.traces_total = traces_total;
        frame.report = partial;
        try {
          write_frame(fd,
                      encode_response(Status::kOk, "", /*cache_hit=*/false,
                                      encode_audit_partial(frame)),
                      [this] { return listener_.stopping(); });
          partials_out.add();
        } catch (const std::exception&) {
          failed->store(true);
        }
      };
  return audit_reply(request, std::move(progress));
}

Listener::Reply Server::audit_reply(const AuditRequest& request,
                                    tvla::ProgressFn progress) {
  try {
    core::validate(request.config);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  // Streaming and non-streaming audits share one cache key (the compute
  // and the reply bytes are identical); a streamed request that hits the
  // cache replays the final body and emits zero partial frames.
  const std::uint64_t key =
      combine_all(core::config_fingerprint(request.config),
                  {static_cast<std::uint64_t>(RequestKind::kAudit)});
  return serve_cached(
      request.design, request.scale, key,
      [&](const circuits::Design& design) {
        // Either way the campaign runs on scheduler_ and this handler waits
        // on it alone. The distributed backend adds the workers' lanes:
        // same shards, same ascending merge, same bits - which is exactly
        // why the cache key above is unchanged.
        tvla::LeakageReport report =
            pool_ ? pool_->audit(scheduler_, {&design, 1}, lib_,
                                 request.config, std::move(progress))[0]
                  : tvla::submit(scheduler_,
                                 core::audit_spec(design, lib_, request.config,
                                                  std::move(progress)))
                        .get();
        AuditReply reply;
        reply.design_name = design.name;
        reply.gate_count = design.netlist.gate_count();
        reply.traces = request.config.tvla.traces;
        reply.report = std::move(report);
        reply.traces_used = reply.report.traces_used();
        reply.early_stopped = reply.report.early_stopped();
        return encode_audit_reply(reply);
      });
}

Listener::Reply Server::serve_mask(serialize::Reader& in) {
  const MaskRequest request = decode_mask_request(in);
  const std::size_t mask_size =
      request.mask_size != 0 ? request.mask_size : polaris_.config().mask_size;
  const std::uint64_t key = combine_all(
      info_.config_fingerprint,
      {static_cast<std::uint64_t>(RequestKind::kMask), mask_size,
       static_cast<std::uint64_t>(request.mode),
       static_cast<std::uint64_t>(request.verify)});
  return serve_cached(
      request.design, request.scale, key,
      [&](const circuits::Design& design) {
        auto outcome = polaris_.mask_design(design, lib_, mask_size,
                                            request.mode, /*verify=*/false);
        MaskReply reply;
        reply.design_name = design.name;
        reply.gate_count = design.netlist.gate_count();
        reply.masked_gate_count = outcome.masked.gate_count();
        reply.selected = std::move(outcome.selected);
        reply.seconds = outcome.seconds;
        reply.verilog = netlist::to_verilog(outcome.masked);
        if (request.verify) {
          // The sign-off campaigns share the queue with every other
          // client's shards; this handler waits on these two only.
          auto verification = core::verify_masking(
              scheduler_, design, outcome.masked, lib_, polaris_.config());
          reply.before = std::move(verification.before);
          reply.after = std::move(verification.after);
        }
        return encode_mask_reply(reply);
      });
}

Listener::Reply Server::serve_score(serialize::Reader& in) {
  const ScoreRequest request = decode_score_request(in);
  const std::uint64_t key =
      combine_all(info_.config_fingerprint,
                  {static_cast<std::uint64_t>(RequestKind::kScore),
                   static_cast<std::uint64_t>(request.mode)});
  return serve_cached(request.design, request.scale, key,
                      [&](const circuits::Design& design) {
                        ScoreReply reply;
                        reply.design_name = design.name;
                        reply.scores =
                            polaris_.score_gates(design, request.mode);
                        return encode_score_reply(reply);
                      });
}

Listener::Reply Server::serve_cached(const std::string& design, double scale,
                                     std::uint64_t request_key,
                                     const Compute& compute) {
  static auto& designs_built =
      obs::Registry::global().counter("server.designs_built");
  circuits::DesignSource source;
  try {
    source = circuits::resolve_design(design, scale);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  const std::uint64_t key =
      util::fnv1a_u64(request_key, source_identity(source));
  if (auto cached = cache_.get(key)) return {std::move(cached), true};
  circuits::Design built;
  try {
    built = circuits::build_design(source);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  designs_built.add();
  try {
    auto body =
        std::make_shared<const std::vector<std::uint8_t>>(compute(built));
    cache_.put(key, body);
    return {std::move(body)};
  } catch (const std::exception& error) {
    throw ServerError(Status::kServerError, error.what());
  }
}

}  // namespace polaris::server
