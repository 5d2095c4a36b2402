// `polaris_cli serve`: the long-lived masking daemon. Loads a .plb bundle
// ONCE, binds a Unix-domain socket, and serves audit/mask/score requests
// until SIGINT/SIGTERM or a client `shutdown` - every later request skips
// the process launch, bundle load, and cold caches an offline invocation
// pays. Concurrent clients' TVLA shards interleave in one scheduler queue;
// repeated requests for unchanged designs answer from the result cache.
#include <cstdio>

#include "cli.hpp"
#include "server/server.hpp"

namespace polaris::cli {

int cmd_serve(std::span<const char* const> args) {
  const std::vector<FlagSpec> specs = {
      {"bundle", true, "trained .plb bundle to serve (required)"},
      {"socket", true,
       "endpoint to listen on: Unix-socket path or tcp:host:port (required)"},
      {"threads", true, "scheduler worker threads, 0 = all cores (default 0)"},
      {"workers", true,
       "comma-separated shard-worker endpoints; audits distribute across "
       "them plus local lanes (results stay byte-identical)"},
      {"max-frame", true,
       "largest accepted request payload in bytes (default 67108864)"},
      {"cache-capacity", true, "result-cache entries, 0 disables (default 256)"},
      {"metrics-file", true, "append one JSON metrics-delta line per second"},
      {"help", false, "show this help"},
  };
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli serve --bundle <model.plb> --socket "
                "<path.sock> [flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }

  server::ServerOptions options;
  options.bundle_path = flags.require("bundle");
  options.socket_path = flags.require("socket");
  options.threads = flags.get_size("threads", 0);
  options.workers = flags.get("workers", "");
  options.max_frame = flags.get_size("max-frame", server::kDefaultMaxFrame);
  options.cache_capacity = flags.get_size("cache-capacity", 256);
  options.metrics_file = flags.get("metrics-file", "");

  server::Server daemon(options);
  const auto& info = daemon.bundle_info();
  // The RESOLVED endpoint: "--socket tcp:host:0" binds an ephemeral port,
  // and smoke scripts read the actual one from this line. A UDS endpoint
  // renders as its path, exactly as before.
  std::printf("polaris serve: %s (model=%s, fingerprint=%016llx) on %s\n",
              options.bundle_path.c_str(), info.model_name.c_str(),
              static_cast<unsigned long long>(info.config_fingerprint),
              server::net::to_string(daemon.endpoint()).c_str());
  if (!options.workers.empty()) {
    std::printf("polaris serve: distributing audits over workers %s\n",
                options.workers.c_str());
  }
  std::fflush(stdout);  // smoke scripts wait for this line through a pipe

  run_until_stopped(daemon);

  const auto stats = daemon.stats();
  std::printf("polaris serve: drained after %llu requests over %llu "
              "connections (cache: %llu hits / %llu misses, %llu entries)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_entries));
  return 0;
}

}  // namespace polaris::cli
