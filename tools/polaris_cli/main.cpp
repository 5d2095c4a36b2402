// polaris_cli - the POLARIS serving surface: train once into a .plb model
// bundle, then audit/mask/inspect any number of designs without re-paying
// the Algorithm-1 labelling + training cost (the Table II value
// proposition, as a tool an ASIC flow can call).
//
//   polaris_cli train   --out model.plb [--traces N --iterations N ...]
//   polaris_cli audit   --design des3 [--json]
//   polaris_cli mask    --bundle model.plb --design des3 --out masked.v
//   polaris_cli inspect --bundle model.plb [--rules]
//   polaris_cli serve   --bundle model.plb --socket polaris.sock
//   polaris_cli worker  --listen tcp:0.0.0.0:7000
//   polaris_cli client  <audit|mask|score|ping|stats|status|top|shutdown>
//                       --socket polaris.sock
//   polaris_cli version [--json]
//
// Exit codes: 0 success, 1 runtime failure, 2 bad usage.
#include <cstdio>
#include <cstring>
#include <exception>

#include "cli.hpp"

namespace {

void print_usage() {
  std::fputs(
      "usage: polaris_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  train    run Algorithm 1 + model fit on the training suite and\n"
      "           write a .plb model bundle\n"
      "  audit    TVLA leakage report for a design (table or --json)\n"
      "  mask     load a bundle, harden a design (Algorithm 2, no TVLA),\n"
      "           emit masked structural Verilog\n"
      "  inspect  print bundle metadata, config, and mined rules\n"
      "  serve    long-lived daemon: load a bundle once, serve audit/mask/\n"
      "           score over a Unix socket or TCP until SIGINT/SIGTERM/\n"
      "           shutdown (--workers distributes audit campaigns)\n"
      "  worker   shard-execution worker: runs TVLA campaign shards for a\n"
      "           remote coordinator (audit/serve --workers)\n"
      "  client   talk to a running daemon (audit | mask | score | ping |\n"
      "           stats | status | top | shutdown); audit, mask and score\n"
      "           print the same output, with the same exit codes, as the\n"
      "           offline commands\n"
      "  version  build type, SIMD dispatch, and protocol versions\n"
      "\n"
      "designs are suite names (des3, arbiter, sin, md5, voter, square,\n"
      "sqrt, div, memctrl, multiplier, log2, ...) or structural Verilog\n"
      "files (path ending in .v).\n"
      "\n"
      "run 'polaris_cli <command> --help' for per-command flags.\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const char* command = argv[1];
  const std::span<const char* const> args(
      const_cast<const char* const*>(argv) + 2,
      static_cast<std::size_t>(argc - 2));
  try {
    if (std::strcmp(command, "train") == 0) return polaris::cli::cmd_train(args);
    if (std::strcmp(command, "audit") == 0) return polaris::cli::cmd_audit(args);
    if (std::strcmp(command, "mask") == 0) return polaris::cli::cmd_mask(args);
    if (std::strcmp(command, "inspect") == 0) {
      return polaris::cli::cmd_inspect(args);
    }
    if (std::strcmp(command, "serve") == 0) return polaris::cli::cmd_serve(args);
    if (std::strcmp(command, "worker") == 0) {
      return polaris::cli::cmd_worker(args);
    }
    if (std::strcmp(command, "client") == 0) {
      return polaris::cli::cmd_client(args);
    }
    if (std::strcmp(command, "version") == 0) {
      return polaris::cli::cmd_version(args);
    }
    if (std::strcmp(command, "--help") == 0 || std::strcmp(command, "-h") == 0) {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "polaris_cli: unknown command '%s'\n\n", command);
    print_usage();
    return 2;
  } catch (const polaris::cli::UsageError& error) {
    std::fprintf(stderr, "polaris_cli %s: %s\n", command, error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "polaris_cli %s: %s\n", command, error.what());
    return 1;
  }
}
