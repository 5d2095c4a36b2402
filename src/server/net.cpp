#include "server/net.hpp"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace polaris::server::net {

namespace {

/// listen(2) backlog: connections the kernel queues while an accept loop
/// is busy spawning handlers.
constexpr int kListenBacklog = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("polaris net: " + what + ": " +
                           std::strerror(errno));
}

/// True when a daemon is actively listening on the UDS path (a connect
/// attempt succeeds). Distinguishes a live socket from a stale file left
/// by a crashed process.
bool uds_is_live(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool live = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) == 0;
  ::close(fd);
  return live;
}

sockaddr_un uds_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error(
        "polaris net: socket path must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " characters, got '" +
        path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo wrapper; the caller owns the returned list.
addrinfo* resolve_tcp(const Endpoint& endpoint, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int rc = ::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints,
                               &result);
  if (rc != 0) {
    throw std::runtime_error("polaris net: cannot resolve '" + endpoint.host +
                             "': " + ::gai_strerror(rc));
  }
  return result;
}

bool all_digits(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::uint16_t parse_port(const std::string& text, const std::string& spec) {
  if (!all_digits(text) || text.size() > 5) {
    throw std::runtime_error("polaris net: bad port in endpoint '" + spec +
                             "'");
  }
  const unsigned long value = std::stoul(text);
  if (value > 65535) {
    throw std::runtime_error("polaris net: bad port in endpoint '" + spec +
                             "'");
  }
  return static_cast<std::uint16_t>(value);
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  if (spec.empty()) {
    throw std::runtime_error("polaris net: empty endpoint spec");
  }
  Endpoint endpoint;
  std::string rest;
  if (spec.rfind("tcp:", 0) == 0) {
    rest = spec.substr(4);
  } else {
    // A bare "host:port" (numeric port, no path separator) also reads as
    // TCP - the natural spelling in a --workers list. Anything else is a
    // UDS path.
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || spec.find('/') != std::string::npos ||
        !all_digits(spec.substr(colon + 1))) {
      endpoint.path = spec;
      return endpoint;
    }
    rest = spec;
  }
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::runtime_error("polaris net: TCP endpoint must be "
                             "tcp:host:port, got '" + spec + "'");
  }
  endpoint.tcp = true;
  endpoint.host = rest.substr(0, colon);
  endpoint.port = parse_port(rest.substr(colon + 1), spec);
  return endpoint;
}

std::string to_string(const Endpoint& endpoint) {
  if (!endpoint.tcp) return endpoint.path;
  return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
}

int listen_endpoint(const Endpoint& endpoint) {
  if (!endpoint.tcp) {
    const sockaddr_un addr = uds_addr(endpoint.path);
    // Replace a STALE socket file only: silently unlinking a live daemon's
    // socket would hijack its clients while it keeps running invisibly.
    if (uds_is_live(addr)) {
      throw std::runtime_error("polaris net: a daemon is already serving on '" +
                               endpoint.path + "'");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    ::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("bind '" + endpoint.path + "'");
    }
    if (::listen(fd, kListenBacklog) != 0) {
      const int saved = errno;
      ::close(fd);
      ::unlink(endpoint.path.c_str());
      errno = saved;
      throw_errno("listen");
    }
    return fd;
  }

  addrinfo* addresses = resolve_tcp(endpoint, /*passive=*/true);
  int fd = -1;
  int last_errno = 0;
  for (const addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    // Restart-in-place: without SO_REUSEADDR a daemon restarted within
    // TIME_WAIT of its predecessor fails the bind, which breaks CI smoke
    // scripts that cycle coordinators and workers on fixed ports.
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, kListenBacklog) == 0) {
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) {
    errno = last_errno;
    throw_errno("listen on '" + to_string(endpoint) + "'");
  }
  return fd;
}

Endpoint bound_endpoint(int listen_fd, const Endpoint& endpoint) {
  if (!endpoint.tcp || endpoint.port != 0) return endpoint;
  Endpoint bound = endpoint;
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return bound;
  }
  if (addr.ss_family == AF_INET) {
    bound.port = ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  } else if (addr.ss_family == AF_INET6) {
    bound.port =
        ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  return bound;
}

int connect_endpoint(const Endpoint& endpoint) {
  if (!endpoint.tcp) {
    const sockaddr_un addr = uds_addr(endpoint.path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("polaris net: cannot connect to '" +
                               endpoint.path + "': " + std::strerror(saved) +
                               " (is the daemon running?)");
    }
    return fd;
  }
  addrinfo* addresses = resolve_tcp(endpoint, /*passive=*/false);
  int fd = -1;
  int last_errno = 0;
  for (const addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd, endpoint);
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) {
    throw std::runtime_error("polaris net: cannot connect to '" +
                             to_string(endpoint) +
                             "': " + std::strerror(last_errno) +
                             " (is the worker/daemon running?)");
  }
  return fd;
}

void set_nodelay(int fd, const Endpoint& endpoint) {
  if (!endpoint.tcp) return;
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_io_tick(int fd) {
  timeval tick{};
  tick.tv_usec = kIoTickMs * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tick, sizeof(tick));
}

void unlink_if_uds(const Endpoint& endpoint) {
  if (!endpoint.tcp) ::unlink(endpoint.path.c_str());
}

}  // namespace polaris::server::net
