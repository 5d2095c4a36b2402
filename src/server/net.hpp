// Endpoint transport for the serve daemon, workers, and clients: one
// parser and one pair of listen/connect helpers shared by every socket
// user, so the UDS path and the TCP path cannot drift apart.
//
// An endpoint spec is either
//   "tcp:host:port"  - TCP over IPv4/IPv6 (host resolved via getaddrinfo;
//                      port 0 binds an ephemeral port, readable back
//                      through bound_endpoint()), or
//   anything else    - a Unix-domain socket path (the original transport).
//
// The frame protocol (protocol.hpp) is transport-agnostic: both listeners
// produce connected stream fds the PLFR codec reads and writes unchanged.
#pragma once

#include <cstdint>
#include <string>

namespace polaris::server::net {

struct Endpoint {
  bool tcp = false;
  std::string host;         // TCP only
  std::uint16_t port = 0;   // TCP only (0 = ephemeral)
  std::string path;         // UDS only
};

/// Parses an endpoint spec (see file comment). A bare "host:port" with a
/// numeric port is also accepted as TCP - the natural spelling for
/// --workers lists. Throws std::runtime_error on an empty or unusable
/// spec.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Canonical display form: "tcp:host:port" or the UDS path.
[[nodiscard]] std::string to_string(const Endpoint& endpoint);

/// Binds and listens (backlog 64). UDS: replaces a STALE socket file only
/// (connecting to a live daemon's socket throws instead of hijacking it).
/// TCP: sets SO_REUSEADDR before bind so restart-in-place works in CI and
/// smoke scripts. Throws std::runtime_error on failure.
[[nodiscard]] int listen_endpoint(const Endpoint& endpoint);

/// The endpoint a listening fd actually bound - resolves an ephemeral TCP
/// port 0 to the kernel-assigned port. UDS endpoints return unchanged.
[[nodiscard]] Endpoint bound_endpoint(int listen_fd, const Endpoint& endpoint);

/// Connects a stream socket to the endpoint (with set_nodelay applied).
/// Throws std::runtime_error (with the spec in the message) when nothing
/// listens there.
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

/// Sets TCP_NODELAY on a connected TCP stream; a no-op for UDS. Every
/// frame goes out as two writes (header, then payload), and with Nagle's
/// algorithm on, the second write waits for the peer's delayed ACK of the
/// first: tens of milliseconds per small frame. Called on both ends of
/// every TCP connection (connect_endpoint and the accept loops).
void set_nodelay(int fd, const Endpoint& endpoint);

/// The socket I/O tick: how long a blocking read or write on a connection
/// waits before frame I/O re-checks its cancel probe (protocol.hpp). It
/// bounds how late a deadline or a drain is noticed.
inline constexpr int kIoTickMs = 100;

/// Sets kIoTickMs as the fd's SO_RCVTIMEO and SO_SNDTIMEO.
void set_io_tick(int fd);

/// Removes a UDS endpoint's socket file; no-op for TCP.
void unlink_if_uds(const Endpoint& endpoint);

}  // namespace polaris::server::net
