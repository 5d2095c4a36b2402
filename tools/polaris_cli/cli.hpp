// Shared plumbing for the `polaris_cli` subcommands: a tiny declarative
// flag parser, config construction (validated through core::validate, the
// same gate Polaris's constructor applies), design loading by suite name or
// Verilog path, and JSON helpers for machine-readable output.
#pragma once

#include <signal.h>

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"

namespace polaris::cli {

/// Bad invocation (unknown flag, missing value, unparsable number). main()
/// turns this into usage text + exit code 2; runtime failures exit 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct FlagSpec {
  std::string name;  // without the leading "--"
  bool takes_value = true;
  std::string help;
};

class ParsedFlags {
 public:
  /// Parses `--name value` / `--name` argument lists against `specs`.
  /// Throws UsageError on unknown flags, missing values, or positionals.
  ParsedFlags(std::span<const char* const> args,
              std::span<const FlagSpec> specs);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// Required string flag; throws UsageError when absent.
  [[nodiscard]] std::string require(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One usage line per flag, aligned, for the per-command help text.
[[nodiscard]] std::string render_flag_help(std::span<const FlagSpec> specs);

/// Flags shared by every subcommand that builds a PolarisConfig.
[[nodiscard]] std::vector<FlagSpec> config_flag_specs();

/// PolarisConfig from defaults + `config_flag_specs` overrides, passed
/// through core::validate (UsageError on violation, so the CLI reports
/// range problems as usage errors rather than crashes).
[[nodiscard]] core::PolarisConfig config_from_flags(const ParsedFlags& flags);

/// Parses an InferenceMode name: model | rules | model+rules.
[[nodiscard]] core::InferenceMode mode_from_string(const std::string& name);

/// RAII wrapper for `--trace FILE`: starts the global obs::Tracer and
/// opens a root span named after the command; the destructor closes the
/// span, stops the tracer, and writes the Chrome trace-event JSON
/// atomically to the file (a note goes to stderr, so --json stdout stays
/// clean). An empty path disables everything - the guard then costs one
/// branch per span on the instrumented paths, per the obs contract.
class TraceGuard {
 public:
  TraceGuard(const std::string& path, const char* command);
  ~TraceGuard();
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  std::string path_;
  const char* command_;
  std::int64_t start_ns_ = 0;
};

/// The shared `--trace FILE` flag spec, appended by train/audit/mask.
[[nodiscard]] FlagSpec trace_flag_spec();

// Output renderers shared by the offline commands and `polaris_cli
// client`: a served response prints byte-identically to its offline
// counterpart because both go through the same formatter. None append a
// trailing newline; callers own separators.
[[nodiscard]] std::string render_audit_json(const std::string& design_name,
                                            std::size_t gate_count,
                                            const tvla::LeakageReport& report,
                                            std::size_t traces,
                                            std::size_t top);
[[nodiscard]] std::string render_audit_table(const std::string& design_name,
                                             std::size_t gate_count,
                                             const tvla::LeakageReport& report,
                                             std::size_t traces,
                                             std::size_t top);
/// `before`/`after` are the optional --verify sign-off reports (both or
/// neither).
[[nodiscard]] std::string render_mask_json(
    const std::string& design_name, std::size_t gate_count,
    std::size_t selected, std::size_t masked_gate_count, double seconds,
    const std::string& out_path, const tvla::LeakageReport* before,
    const tvla::LeakageReport* after);
[[nodiscard]] std::string render_mask_text(
    const std::string& design_name, std::size_t gate_count,
    std::size_t selected, std::size_t masked_gate_count, double seconds,
    const std::string& out_path, const tvla::LeakageReport* before,
    const tvla::LeakageReport* after);

/// Runs a long-lived `serve` or `worker` process body: start(), route
/// SIGINT/SIGTERM to request_stop() (one write to a pipe, async-signal-
/// safe), and block in wait() until the service has drained - in-flight
/// requests answered, the socket file unlinked.
template <class Service>
void run_until_stopped(Service& service) {
  static Service* running = nullptr;
  running = &service;
  struct sigaction action {};
  action.sa_handler = [](int) {
    if (running != nullptr) running->request_stop();
  };
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  service.start();
  service.wait();
  running = nullptr;
}

// Subcommand entry points (argv past the subcommand name).
int cmd_train(std::span<const char* const> args);
int cmd_audit(std::span<const char* const> args);
int cmd_mask(std::span<const char* const> args);
int cmd_inspect(std::span<const char* const> args);
int cmd_serve(std::span<const char* const> args);
int cmd_worker(std::span<const char* const> args);
int cmd_client(std::span<const char* const> args);
int cmd_version(std::span<const char* const> args);

}  // namespace polaris::cli
