// Thin framed-protocol client for the POLARIS serve daemon. Used by the
// `polaris_cli client` subcommands, the server tests, and bench_serve - one
// implementation of the wire contract on the client side.
#pragma once

#include <cstddef>
#include <string>

#include "server/protocol.hpp"

namespace polaris::server {

class Client {
 public:
  /// Connects to a serving daemon or shard worker. `endpoint` is an
  /// endpoint spec (a UDS path or "tcp:host:port"; see server/net.hpp).
  /// `timeout_ms` > 0 arms a per-call deadline: a call that cannot finish
  /// its frame I/O within it throws TimeoutError (the socket I/O tick,
  /// net::set_io_tick, makes the blocking I/O re-check it). 0 means
  /// block indefinitely, the original behavior. Throws std::runtime_error
  /// when nothing listens on the endpoint.
  explicit Client(const std::string& endpoint, std::size_t timeout_ms = 0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Each call sends one request frame and blocks for the response frame.
  /// An error response rethrows as ServerError (status + server message).
  [[nodiscard]] PingReply ping();
  /// Registry snapshot + runtime identity of the daemon process.
  [[nodiscard]] StatsReply stats();
  /// Live-operations snapshot: in-flight requests, campaign progress,
  /// flight-recorder ring. Older daemons answer kBadPayload (thrown here
  /// as ServerError), exactly like stats() against a pre-obs daemon.
  [[nodiscard]] StatusReply status();
  [[nodiscard]] AuditReply audit(const AuditRequest& request);
  /// Streaming audit: sends kAuditStream and consumes kOk frames until the
  /// final AUDS reply, invoking `on_partial` (may be empty) per AUDP
  /// checkpoint frame. The returned reply is byte-identical to audit() for
  /// the same request; a cache hit on the server delivers zero partials.
  [[nodiscard]] AuditReply audit_stream(
      const AuditRequest& request,
      const std::function<void(const AuditPartial&)>& on_partial);
  [[nodiscard]] MaskReply mask(const MaskRequest& request);
  [[nodiscard]] ScoreReply score(const ScoreRequest& request);
  /// Asks the daemon to drain and exit. The acknowledgement arrives before
  /// the server begins its drain, so the call returning means the request
  /// was accepted, not that the process has exited.
  void shutdown_server();

 private:
  /// Sends one request frame and receives its reply.
  Response roundtrip(std::span<const std::uint8_t> payload);
  /// Reads one response frame; a closed or malformed stream throws
  /// std::runtime_error, a non-OK status rethrows as ServerError.
  Response receive(const CancelProbe& deadline);
  /// Starts a fresh deadline window (one per public call) and returns the
  /// probe the frame I/O consults; empty when timeouts are disabled.
  CancelProbe arm_deadline();

  int fd_ = -1;
  std::size_t timeout_ms_ = 0;
  std::int64_t deadline_ns_ = 0;  // obs::now_ns()-based, 0 = unarmed
};

}  // namespace polaris::server
