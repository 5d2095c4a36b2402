// `polaris_cli worker`: a shard-execution worker for distributed audits.
// Binds an endpoint (usually "tcp:host:port"), accepts design installs and
// shard requests from a coordinator (`audit --workers` or `serve
// --workers`), compiles each (config, design) pair ONCE into a cached
// plan, and ships unmerged per-shard moment blocks back. Stateless across
// campaigns beyond those caches; safe to kill at any time - the
// coordinator requeues unacknowledged shards onto its remaining lanes.
#include <cstdio>

#include "cli.hpp"
#include "server/worker.hpp"

namespace polaris::cli {

int cmd_worker(std::span<const char* const> args) {
  const std::vector<FlagSpec> specs = {
      {"listen", true,
       "endpoint to serve on: tcp:host:port (port 0 = ephemeral) or a "
       "Unix-socket path (required)"},
      {"threads", true, "shard fan-out threads, 0 = all cores (default 0)"},
      {"max-frame", true,
       "largest accepted request payload in bytes (default 67108864)"},
      {"help", false, "show this help"},
  };
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli worker --listen <tcp:host:port|path.sock> "
                "[flags]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }

  server::WorkerOptions options;
  options.listen = flags.require("listen");
  options.threads = flags.get_size("threads", 0);
  options.max_frame = flags.get_size("max-frame", server::kDefaultMaxFrame);

  server::Worker worker(options);
  const auto& bound = worker.endpoint();
  // The resolved endpoint matters when --listen asked for port 0: smoke
  // scripts read the actual port from this line through a pipe.
  std::printf("polaris worker: serving shards on %s\n",
              server::net::to_string(bound).c_str());
  std::fflush(stdout);

  run_until_stopped(worker);

  std::printf("polaris worker: drained after %llu shards over %llu requests\n",
              static_cast<unsigned long long>(worker.shards_run()),
              static_cast<unsigned long long>(worker.requests_served()));
  return 0;
}

}  // namespace polaris::cli
