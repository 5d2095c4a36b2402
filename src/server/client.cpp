#include "server/client.hpp"

#include <errno.h>
#include <unistd.h>

#include <cstring>

#include "server/net.hpp"
#include "util/timer.hpp"

namespace polaris::server {

Client::Client(const std::string& endpoint, std::size_t timeout_ms)
    : timeout_ms_(timeout_ms) {
  fd_ = net::connect_endpoint(net::parse_endpoint(endpoint));
  // The tick makes the blocking frame I/O consult the deadline probe from
  // arm_deadline(), so a deadline is noticed within one tick.
  if (timeout_ms_ > 0) net::set_io_tick(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

CancelProbe Client::arm_deadline() {
  if (timeout_ms_ == 0) return {};
  deadline_ns_ = util::now_ns() +
                 static_cast<std::int64_t>(timeout_ms_) * 1'000'000;
  // Throwing from the probe (instead of returning true) surfaces the
  // structured TimeoutError rather than the generic cancellation message.
  return [this]() -> bool {
    if (util::now_ns() > deadline_ns_) {
      throw TimeoutError("polaris client: no response within " +
                         std::to_string(timeout_ms_) + " ms");
    }
    return false;
  };
}

Response Client::roundtrip(std::span<const std::uint8_t> payload) {
  const CancelProbe deadline = arm_deadline();
  write_frame(fd_, payload, deadline);
  return receive(deadline);
}

Response Client::receive(const CancelProbe& deadline) {
  std::vector<std::uint8_t> reply;
  // No client-side cap beyond sanity: the server is trusted, but a
  // corrupted stream should still fail cleanly, not allocate unboundedly.
  const FrameResult result =
      read_frame(fd_, kDefaultMaxFrame * 4, reply, deadline);
  if (result == FrameResult::kClosed) {
    throw std::runtime_error("polaris client: server closed the connection");
  }
  if (result != FrameResult::kFrame) {
    throw std::runtime_error("polaris client: malformed response frame");
  }
  Response response = decode_response(std::move(reply));
  if (response.status != Status::kOk) {
    throw ServerError(response.status,
                      response.message.empty() ? to_string(response.status)
                                               : response.message);
  }
  return response;
}

PingReply Client::ping() {
  const Response response = roundtrip(encode_ping_request());
  return decode_ping_reply(response.body);
}

StatsReply Client::stats() {
  const Response response = roundtrip(encode_stats_request());
  return decode_stats_reply(response.body);
}

StatusReply Client::status() {
  const Response response = roundtrip(encode_status_request());
  return decode_status_reply(response.body);
}

AuditReply Client::audit(const AuditRequest& request) {
  const Response response = roundtrip(encode_audit_request(request));
  AuditReply reply = decode_audit_reply(response.body);
  reply.cache_hit = response.cache_hit;
  return reply;
}

AuditReply Client::audit_stream(
    const AuditRequest& request,
    const std::function<void(const AuditPartial&)>& on_partial) {
  const std::vector<std::uint8_t> payload =
      encode_audit_stream_request(request);
  write_frame(fd_, payload, arm_deadline());
  // The response is a sequence of kOk frames: zero or more AUDP checkpoint
  // bodies, terminated by the AUDS reply (or a single error frame). The
  // deadline re-arms per frame: checkpoints are separated by compute, and
  // the timeout bounds silence, not total campaign time.
  for (;;) {
    const Response response = receive(arm_deadline());
    if (is_audit_partial(response.body)) {
      if (on_partial) on_partial(decode_audit_partial(response.body));
      continue;
    }
    AuditReply reply = decode_audit_reply(response.body);
    reply.cache_hit = response.cache_hit;
    return reply;
  }
}

MaskReply Client::mask(const MaskRequest& request) {
  const Response response = roundtrip(encode_mask_request(request));
  MaskReply reply = decode_mask_reply(response.body);
  reply.cache_hit = response.cache_hit;
  return reply;
}

ScoreReply Client::score(const ScoreRequest& request) {
  const Response response = roundtrip(encode_score_request(request));
  ScoreReply reply = decode_score_reply(response.body);
  reply.cache_hit = response.cache_hit;
  return reply;
}

void Client::shutdown_server() {
  (void)roundtrip(encode_shutdown_request());
}

}  // namespace polaris::server
