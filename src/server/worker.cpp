#include "server/worker.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"

namespace polaris::server {

namespace {

// Same poll cadence as the serve daemon: SO_*TIMEO on every accepted
// socket bounds how long a stalled peer can pin a handler across a drain.
constexpr int kHandlerPollMs = 100;
constexpr int kAcceptPollMs = 500;

}  // namespace

Worker::Worker(WorkerOptions options) : options_(std::move(options)) {
  const net::Endpoint requested = net::parse_endpoint(options_.listen);
  listen_fd_ = net::listen_endpoint(requested, options_.backlog);
  endpoint_ = net::bound_endpoint(listen_fd_, requested);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    net::unlink_if_uds(endpoint_);
    throw std::runtime_error("polaris worker: pipe: " +
                             std::string(std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
}

Worker::~Worker() {
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

void Worker::start() {
  if (started_) throw std::logic_error("polaris worker: start() called twice");
  started_ = true;
  accept_thread_ = std::thread(&Worker::accept_loop, this);
}

void Worker::request_stop() {
  const std::uint8_t byte = 1;
  (void)!::write(wake_write_fd_, &byte, 1);
}

void Worker::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Worker::accept_loop() {
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
    timeval timeout{};
    timeout.tv_usec = kHandlerPollMs * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    net::set_nodelay(fd, endpoint_);
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

  // Graceful drain, exactly like the serve daemon: in-flight shard runs
  // complete and their replies are delivered before wait() returns.
  stopping_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  net::unlink_if_uds(endpoint_);
  std::vector<std::unique_ptr<Connection>> remaining;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    remaining.swap(connections_);
  }
  for (auto& connection : remaining) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Worker::reap_finished_connections() {
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
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Worker::handle_connection(int fd) {
  const CancelProbe stop_probe = [this] { return stopping_.load(); };
  std::vector<std::uint8_t> payload;
  try {
    for (;;) {
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, stop_probe);
      if (result == FrameResult::kClosed) break;
      if (result != FrameResult::kFrame) {
        const Status status = result == FrameResult::kBadMagic
                                  ? Status::kBadMagic
                                  : result == FrameResult::kBadVersion
                                        ? Status::kBadVersion
                                        : Status::kTooLarge;
        write_frame(fd,
                    encode_response(status, to_string(status),
                                    /*cache_hit=*/false, {}),
                    stop_probe);
        requests_served_.fetch_add(1);
        break;
      }
      if (!handle_payload(fd, payload)) break;
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: drop this one connection. The
    // coordinator treats the loss as a dead worker and requeues.
  }
  ::close(fd);
}

bool Worker::handle_payload(int fd, std::vector<std::uint8_t>& payload) {
  Status status = Status::kOk;
  std::string message;
  bool keep_open = true;
  std::vector<std::uint8_t> body;
  try {
    serialize::Reader in(std::move(payload));
    const RequestKind kind = decode_request_kind(in);
    switch (kind) {
      case RequestKind::kPing: body = serve_ping(); break;
      case RequestKind::kDesign: body = serve_design(in); break;
      case RequestKind::kShard: body = serve_shards(in); break;
      case RequestKind::kShutdown:
        keep_open = false;
        request_stop();
        break;
      default:
        throw ServerError(Status::kBadRequest,
                          std::string("polaris worker: request kind '") +
                              request_kind_name(kind) +
                              "' not served by shard workers");
    }
  } catch (const ServerError& error) {
    status = error.status;
    message = error.what();
    body.clear();
  } catch (const std::exception& error) {
    status = Status::kBadPayload;
    message = error.what();
    body.clear();
  }
  write_frame(fd, encode_response(status, message, /*cache_hit=*/false, body),
              [this] { return stopping_.load(); });
  requests_served_.fetch_add(1);
  return keep_open;
}

std::vector<std::uint8_t> Worker::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = "shard-worker";
  reply.requests_served = requests_served_.load();
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  return encode_ping_reply(reply);
}

std::vector<std::uint8_t> Worker::serve_design(serialize::Reader& in) {
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
  return {};  // empty-body kOk ack
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
        core::tvla_config_for(request.config, installed.design),
        tvla::Protocol::kFixedVsRandom);
    installed.config_fingerprint = config;
  }
  return installed.runner;
}

std::vector<std::uint8_t> Worker::serve_shards(serialize::Reader& in) {
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
  return encode_shard_reply(reply);
}

}  // namespace polaris::server
