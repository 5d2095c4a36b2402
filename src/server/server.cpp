#include "server/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace polaris::server {

namespace {

/// Poll interval for connection handlers: the latency bound on noticing a
/// stop request while a client holds an idle connection open. The same
/// interval is set as SO_RCVTIMEO/SO_SNDTIMEO on every accepted socket, so
/// a peer that stalls MID-frame also cannot pin a handler across a drain
/// (the frame I/O layer re-checks its cancel probe on every timeout).
constexpr int kHandlerPollMs = 100;

/// Accept-loop poll interval: bounds how long a finished connection's
/// thread lingers before being reaped.
constexpr int kAcceptPollMs = 500;

std::uint64_t combine_all(std::uint64_t key,
                          std::initializer_list<std::uint64_t> values) {
  for (const auto value : values) key = core::ResultCache::combine(key, value);
  return key;
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<std::uint8_t>(c)) * 1099511628211ULL;
  }
  return hash;
}

/// A design's cache identity, computed from its source without building
/// it: the length-prefixed name, then the bit pattern of the scale for a
/// suite design or a hash of the file's bytes for a .v path. A suite
/// design is a pure function of (name, scale) and a .v design of (path,
/// bytes), so equal identities build equal designs. A name ending in ".v"
/// is always a file, so the two forms never share a name.
std::uint64_t source_identity(const circuits::DesignSource& source) {
  constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
  const std::uint64_t name = fnv1a(
      core::ResultCache::combine(kFnvOffset, source.name.size()), source.name);
  return core::ResultCache::combine(
      name, source.from_file ? fnv1a(kFnvOffset, source.verilog)
                             : std::bit_cast<std::uint64_t>(source.scale));
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("polaris serve: " + what + ": " +
                           std::strerror(errno));
}

/// Per-request-type service-time histogram (request decode + compute +
/// cache lookup; frame I/O excluded). Nullptr is never returned - every
/// decodable kind has a histogram.
obs::Histogram& request_histogram(RequestKind kind) {
  auto& registry = obs::Registry::global();
  static auto& ping = registry.histogram("server.ping_us");
  static auto& audit = registry.histogram("server.audit_us");
  static auto& mask = registry.histogram("server.mask_us");
  static auto& score = registry.histogram("server.score_us");
  static auto& shutdown = registry.histogram("server.shutdown_us");
  static auto& stats = registry.histogram("server.stats_us");
  static auto& audit_stream = registry.histogram("server.audit_stream_us");
  static auto& status = registry.histogram("server.status_us");
  static auto& design = registry.histogram("server.design_us");
  static auto& shard = registry.histogram("server.shard_us");
  switch (kind) {
    case RequestKind::kPing: return ping;
    case RequestKind::kAudit: return audit;
    case RequestKind::kMask: return mask;
    case RequestKind::kScore: return score;
    case RequestKind::kShutdown: return shutdown;
    case RequestKind::kStats: return stats;
    case RequestKind::kAuditStream: return audit_stream;
    case RequestKind::kStatus: return status;
    case RequestKind::kDesign: return design;
    case RequestKind::kShard: return shard;
  }
  return ping;  // unreachable: decode_request_kind rejects unknown kinds
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(options_.threads),
      cache_(options_.cache_capacity),
      recorder_(options_.flight_records,
                static_cast<std::uint64_t>(options_.slow_request_ms) * 1000),
      sampler_(obs::Registry::global(),
               obs::Sampler::Options{
                   options_.sample_interval_ms == 0
                       ? std::size_t{1000}
                       : options_.sample_interval_ms,
                   /*capacity=*/128, options_.metrics_file}) {
  start_mono_ns_ = obs::now_ns();
  start_wall_ms_ = obs::wall_clock_ms();
  polaris_ = core::Polaris::load_bundle(options_.bundle_path, &info_);
  if (!options_.workers.empty()) {
    WorkerPoolOptions pool_options;
    pool_options.workers = options_.workers;
    pool_options.local_threads = options_.threads;
    pool_options.max_frame = options_.max_frame;
    pool_ = std::make_unique<WorkerPool>(std::move(pool_options));
  }

  // The endpoint layer handles both transports: UDS with the stale-socket
  // replacement this daemon always had, TCP with SO_REUSEADDR before bind.
  const net::Endpoint requested = net::parse_endpoint(options_.socket_path);
  listen_fd_ = net::listen_endpoint(requested, options_.backlog);
  endpoint_ = net::bound_endpoint(listen_fd_, requested);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    net::unlink_if_uds(endpoint_);
    throw_errno("pipe");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
}

Server::~Server() {
  if (started_) {
    request_stop();
    wait();
  } else if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    net::unlink_if_uds(endpoint_);
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void Server::start() {
  if (started_) throw std::logic_error("polaris serve: start() called twice");
  started_ = true;
  if (options_.sample_interval_ms > 0) sampler_.start();
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::request_stop() {
  // One write to a pipe: async-signal-safe, so SIGINT/SIGTERM handlers can
  // call this directly. The accept loop owns all the non-signal-safe work.
  const std::uint8_t byte = 1;
  (void)!::write(wake_write_fd_, &byte, 1);
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.requests_served = requests_served_.load();
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_entries = cache_.size();
  stats.cache_bytes = cache_.bytes();
  stats.connections = connections_accepted_.load();
  return stats;
}

void Server::accept_loop() {
  for (;;) {
    reap_finished_connections();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, kAcceptPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // reap tick
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    // Timeouts make the frame I/O loops re-check the handler's cancel
    // probe, so a peer stalling mid-frame cannot pin the handler.
    timeval timeout{};
    timeout.tv_usec = kHandlerPollMs * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    net::set_nodelay(fd, endpoint_);
    connections_accepted_.fetch_add(1);
    {
      static auto& opened =
          obs::Registry::global().counter("server.connections_opened");
      opened.add();
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      raw->done.store(true);
    });
  }

  // Graceful drain: stop accepting, let every handler finish its in-flight
  // request (handlers notice stopping_ within kHandlerPollMs), then remove
  // the socket file so "zero leaked sockets" is checkable from outside.
  stopping_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  net::unlink_if_uds(endpoint_);
  const std::int64_t drain_start = obs::now_ns();
  std::vector<std::unique_ptr<Connection>> remaining;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    remaining.swap(connections_);
  }
  for (auto& connection : remaining) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  static auto& drain_us = obs::Registry::global().histogram("server.drain_us");
  drain_us.record(
      static_cast<std::uint64_t>((obs::now_ns() - drain_start) / 1000));
  // Last: the sampler outlives the handlers so the final intervals (the
  // drain itself included) still land in the time-series and metrics file.
  sampler_.stop();
}

void Server::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    auto& live = connections_;
    for (auto it = live.begin(); it != live.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Joining outside the lock: done was set by the handler's last action,
  // so these joins return immediately.
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Server::handle_connection(int fd) {
  auto& registry = obs::Registry::global();
  static auto& frames_in = registry.counter("server.frames_in");
  static auto& frames_out = registry.counter("server.frames_out");
  static auto& frame_errors = registry.counter("server.frame_errors");
  static auto& closed = registry.counter("server.connections_closed");
  // Consulted by the frame I/O loops on every socket timeout: a peer that
  // stalls mid-frame cannot hold this handler across a shutdown drain.
  const CancelProbe stop_probe = [this] { return stopping_.load(); };
  std::vector<std::uint8_t> payload;
  try {
    for (;;) {
      // Idle waiting happens INSIDE read_frame: the socket's SO_RCVTIMEO
      // expires every kHandlerPollMs and the probe is re-checked, so both
      // an idle connection and a mid-frame stall notice a drain through
      // the same mechanism (the probe throws; the catch below closes).
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, stop_probe);
      if (result == FrameResult::kClosed) break;
      if (result != FrameResult::kFrame) {
        // Header-level failure: answer with a structured error frame, then
        // close - after a bad magic or an untrusted length field the byte
        // stream has no trustworthy next frame boundary.
        frame_errors.add();
        const Status status = result == FrameResult::kBadMagic
                                  ? Status::kBadMagic
                                  : result == FrameResult::kBadVersion
                                        ? Status::kBadVersion
                                        : Status::kTooLarge;
        write_frame(fd,
                    encode_response(status, to_string(status),
                                    /*cache_hit=*/false, {}),
                    stop_probe);
        frames_out.add();
        requests_served_.fetch_add(1);
        break;
      }
      frames_in.add();
      if (!handle_payload(fd, payload)) break;
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: there is no answerable request and no
    // usable stream; dropping this one connection is the contract.
  }
  ::close(fd);
  closed.add();
}

bool Server::handle_payload(int fd, std::vector<std::uint8_t>& payload) {
  auto& registry = obs::Registry::global();
  static auto& frames_out = registry.counter("server.frames_out");
  static auto& request_errors = registry.counter("server.request_errors");
  Status status = Status::kOk;
  std::string message;
  bool cache_hit = false;
  bool keep_open = true;
  core::ResultCache::Body body;
  // Per-kind service time: decode through compute/cache lookup, known only
  // once the kind decoded - an undecodable payload records nowhere.
  obs::Histogram* service_us = nullptr;
  const std::uint64_t payload_bytes = payload.size();
  // 0xFF marks "payload never yielded a kind" in the flight recorder; it
  // can never collide with a real RequestKind (decode rejects > kStatus).
  std::uint8_t wire_kind = 0xFF;
  const char* kind_name = "?";
  const std::uint64_t token = next_inflight_token_.fetch_add(1);
  bool tracked = false;
  const std::int64_t t0 = obs::now_ns();
  obs::Span span("request", "server");
  try {
    serialize::Reader in(std::move(payload));
    const RequestKind kind = decode_request_kind(in);
    service_us = &request_histogram(kind);
    wire_kind = static_cast<std::uint8_t>(kind);
    kind_name = request_kind_name(kind);
    span.arg("kind", kind_name);
    {
      // Visible to status requests from here until just before the reply
      // frame is written - the decode-to-encode span the flight recorder
      // times, so "in flight" and duration_us describe the same window.
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.emplace(token, Inflight{wire_kind, payload_bytes, t0});
      tracked = true;
    }
    if (stopping_.load() && kind != RequestKind::kPing &&
        kind != RequestKind::kShutdown) {
      throw ServerError(Status::kShuttingDown, to_string(Status::kShuttingDown));
    }
    switch (kind) {
      case RequestKind::kPing: body = serve_ping(); break;
      case RequestKind::kAudit: body = serve_audit(in, cache_hit); break;
      case RequestKind::kAuditStream:
        body = serve_audit_stream(fd, in, cache_hit);
        break;
      case RequestKind::kMask: body = serve_mask(in, cache_hit); break;
      case RequestKind::kScore: body = serve_score(in, cache_hit); break;
      case RequestKind::kStats: body = serve_stats(); break;
      case RequestKind::kStatus: body = serve_status(); break;
      case RequestKind::kDesign:
      case RequestKind::kShard:
        // Worker-plane requests: the daemon is a coordinator, not a shard
        // worker - point the peer at `polaris_cli worker`.
        throw ServerError(Status::kBadRequest,
                          std::string("polaris serve: request kind '") +
                              kind_name +
                              "' is served by shard workers "
                              "(polaris_cli worker), not the daemon");
      case RequestKind::kShutdown:
        keep_open = false;
        request_stop();
        break;
    }
  } catch (const ServerError& error) {
    status = error.status;
    message = error.what();
    body.reset();
  } catch (const std::exception& error) {
    // Anything the decode layer threw: the frame arrived intact but its
    // payload archive or request structure did not parse.
    status = Status::kBadPayload;
    message = error.what();
    body.reset();
  }
  if (status != Status::kOk) request_errors.add();
  const auto elapsed_us =
      static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000);
  if (service_us != nullptr) service_us->record(elapsed_us);
  span.arg("status", to_string(status)).arg("cache_hit", cache_hit);
  // Untrack BEFORE the reply write: write_frame may throw (torn peer), and
  // an entry that outlives its handler would sit in the status table
  // forever.
  if (tracked) {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(token);
  }
  // The probe only fires on a send timeout: a cooperating client (blocked
  // in read) always gets its in-flight response, even mid-drain; only a
  // stalled peer with a full buffer is dropped.
  const std::span<const std::uint8_t> body_span =
      body ? std::span<const std::uint8_t>(*body)
           : std::span<const std::uint8_t>();
  write_frame(fd, encode_response(status, message, cache_hit, body_span),
              [this] { return stopping_.load(); });
  frames_out.add();
  requests_served_.fetch_add(1);
  FlightRecorder::Record record;
  record.kind = wire_kind;
  record.status = static_cast<std::uint8_t>(status);
  record.cache_hit = cache_hit;
  record.bytes = payload_bytes;
  record.duration_us = elapsed_us;
  record.completed_ns = obs::now_ns();
  recorder_.record(record, kind_name);
  return keep_open;
}

core::ResultCache::Body Server::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = info_.model_name;
  reply.config_fingerprint = info_.config_fingerprint;
  reply.requests_served = requests_served_.load();
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
  reply.requests_served = requests_served_.load();
  reply.connections = connections_accepted_.load();
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
  reply.requests_served = requests_served_.load();
  reply.connections_total = connections_accepted_.load();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    std::uint64_t active = 0;
    for (const auto& connection : connections_) {
      if (!connection->done.load()) ++active;
    }
    reply.connections_active = active;
  }
  reply.uptime_ms =
      static_cast<std::uint64_t>((now - start_mono_ns_) / 1'000'000);
  reply.sample_interval_ms = options_.sample_interval_ms;
  reply.samples = sampler_.series().total_pushed();
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    reply.inflight.reserve(inflight_.size());
    for (const auto& [token, request] : inflight_) {
      InflightEntry entry;
      entry.kind = request.kind;
      entry.bytes = request.bytes;
      entry.age_us =
          static_cast<std::uint64_t>((now - request.start_ns) / 1000);
      reply.inflight.push_back(entry);
    }
  }
  // Oldest first: the map iterates in hash order, which would shuffle the
  // table between polls.
  std::sort(reply.inflight.begin(), reply.inflight.end(),
            [](const InflightEntry& a, const InflightEntry& b) {
              return a.age_us > b.age_us;
            });
  reply.campaigns = scheduler_.progress();
  if (pool_) reply.workers = pool_->health();
  const auto records = recorder_.recent();
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

core::ResultCache::Body Server::serve_audit(serialize::Reader& in,
                                            bool& cache_hit) {
  const AuditRequest request = decode_audit_request(in);
  return audit_body(request, cache_hit, {});
}

core::ResultCache::Body Server::serve_audit_stream(int fd,
                                                   serialize::Reader& in,
                                                   bool& cache_hit) {
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
                      [this] { return stopping_.load(); });
          partials_out.add();
        } catch (const std::exception&) {
          failed->store(true);
        }
      };
  return audit_body(request, cache_hit, std::move(progress));
}

core::ResultCache::Body Server::audit_body(const AuditRequest& request,
                                           bool& cache_hit,
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
      request.design, request.scale, key, cache_hit,
      [&](const circuits::Design& design) {
        tvla::LeakageReport report{{}, {}, 0.0};
        if (pool_) {
          // Distributed backend: same shards, same ascending merge, same
          // bits - which is exactly why the cache key above is unchanged.
          report = pool_->audit({&design, 1}, lib_, request.config,
                                std::move(progress))[0];
        } else {
          auto pending =
              core::submit_audits(scheduler_, {&design, 1}, lib_,
                                  request.config, std::move(progress));
          scheduler_.drain();
          report = pending[0].get();
        }
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

core::ResultCache::Body Server::serve_mask(serialize::Reader& in,
                                           bool& cache_hit) {
  const MaskRequest request = decode_mask_request(in);
  const std::size_t mask_size =
      request.mask_size != 0 ? request.mask_size : polaris_.config().mask_size;
  const std::uint64_t key = combine_all(
      info_.config_fingerprint,
      {static_cast<std::uint64_t>(RequestKind::kMask), mask_size,
       static_cast<std::uint64_t>(request.mode),
       static_cast<std::uint64_t>(request.verify)});
  return serve_cached(
      request.design, request.scale, key, cache_hit,
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
          // Sign-off campaigns (before on the original, after on the masked
          // netlist) drain the shared queue together, interleaved with
          // every other client's shards.
          const auto tvla_config =
              core::tvla_config_for(polaris_.config(), design);
          auto before = tvla::submit_fixed_vs_random(
              scheduler_, design.netlist, lib_, tvla_config, {},
              design.name + ":before");
          auto after = tvla::submit_fixed_vs_random(
              scheduler_, outcome.masked, lib_, tvla_config, {},
              design.name + ":after");
          scheduler_.drain();
          reply.before = before.get();
          reply.after = after.get();
        }
        return encode_mask_reply(reply);
      });
}

core::ResultCache::Body Server::serve_score(serialize::Reader& in,
                                            bool& cache_hit) {
  const ScoreRequest request = decode_score_request(in);
  const std::uint64_t key =
      combine_all(info_.config_fingerprint,
                  {static_cast<std::uint64_t>(RequestKind::kScore),
                   static_cast<std::uint64_t>(request.mode)});
  return serve_cached(request.design, request.scale, key, cache_hit,
                      [&](const circuits::Design& design) {
                        ScoreReply reply;
                        reply.design_name = design.name;
                        reply.scores =
                            polaris_.score_gates(design, request.mode);
                        return encode_score_reply(reply);
                      });
}

core::ResultCache::Body Server::serve_cached(const std::string& design,
                                             double scale,
                                             std::uint64_t request_key,
                                             bool& cache_hit,
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
      core::ResultCache::combine(request_key, source_identity(source));
  if (auto cached = cache_.get(key)) {
    cache_hit = true;
    return cached;
  }
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
    return body;
  } catch (const std::exception& error) {
    throw ServerError(Status::kServerError, error.what());
  }
}

}  // namespace polaris::server
