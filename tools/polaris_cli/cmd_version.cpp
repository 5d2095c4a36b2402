// `polaris_cli version`: build and runtime identity - build type, the SIMD
// kernel the dispatcher would pick on THIS machine, and the wire/bundle
// format versions. The same fields ride in the daemon's ping/stats replies,
// so a flow can compare its local binary against a remote daemon.
#include <cstdio>

#include "cli.hpp"
#include "obs/obs.hpp"
#include "serialize/archive.hpp"
#include "server/protocol.hpp"
#include "util/strings.hpp"

namespace polaris::cli {

int cmd_version(std::span<const char* const> args) {
  const std::vector<FlagSpec> specs = {
      {"json", false, "emit a JSON object instead of text"},
      {"help", false, "show this help"},
  };
  const ParsedFlags flags(args, specs);
  if (flags.has("help")) {
    std::printf("usage: polaris_cli version [--json]\n\n%s",
                render_flag_help(specs).c_str());
    return 0;
  }

  const obs::RuntimeInfo info = obs::runtime_info();
  if (flags.has("json")) {
    std::printf(
        "{\"build\":\"%s\",\"simd\":\"%s\",\"lane_words\":%llu,"
        "\"avx2_supported\":%s,\"avx2_built\":%s,\"protocol\":%u,"
        "\"bundle_format\":%u}\n",
        util::json_escape(info.build_type).c_str(), util::json_escape(info.simd).c_str(),
        static_cast<unsigned long long>(info.lane_words),
        info.avx2_supported ? "true" : "false",
        info.avx2_built ? "true" : "false", server::kProtocolVersion,
        serialize::kFormatVersion);
    return 0;
  }
  std::printf("polaris_cli (%s build)\n", info.build_type.c_str());
  std::printf("  simd dispatch:   %s (lane_words=%llu)\n", info.simd.c_str(),
              static_cast<unsigned long long>(info.lane_words));
  std::printf("  avx2:            cpu %s, binary %s\n",
              info.avx2_supported ? "yes" : "no",
              info.avx2_built ? "yes" : "no");
  std::printf("  serve protocol:  %u\n", server::kProtocolVersion);
  std::printf("  bundle format:   %u\n", serialize::kFormatVersion);
  return 0;
}

}  // namespace polaris::cli
