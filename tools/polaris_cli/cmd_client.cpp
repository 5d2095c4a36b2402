// `polaris_cli client`: thin framed-protocol client for a running serve
// daemon. Verbs mirror the offline commands and print through the SAME
// renderers, so `client audit`/`client mask` output is byte-identical to
// `audit`/`mask` served from the same bundle (timing fields aside) - a
// flow can switch between offline and daemon mode without re-parsing
// anything. Cache-hit notices go to stderr; stdout stays machine-parseable.
//
// Exit codes match the offline commands: 0 success, 1 runtime/server
// failure, 2 bad usage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "cli.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace polaris::cli {

namespace {

/// Every verb takes --timeout-ms: 0 (the default) blocks forever, exactly
/// the pre-flag behavior; > 0 arms the client's per-request deadline and a
/// silent daemon surfaces server::TimeoutError (exit code 1) instead of a
/// hang.
std::size_t timeout_from(const ParsedFlags& flags) {
  return flags.get_size("timeout-ms", 0);
}

void note_cache_hit(bool cache_hit) {
  if (cache_hit) {
    std::fputs("polaris client: served from result cache\n", stderr);
  }
}

int client_ping(const ParsedFlags& flags) {
  server::Client client(flags.require("socket"), timeout_from(flags));
  const auto reply = client.ping();
  std::printf("{\"server\":\"polaris\",\"protocol\":%u,\"model\":\"%s\","
              "\"fingerprint\":\"%016llx\",\"requests\":%llu,"
              "\"cache_hits\":%llu,\"cache_entries\":%llu}\n",
              reply.protocol, util::json_escape(reply.model_name).c_str(),
              static_cast<unsigned long long>(reply.config_fingerprint),
              static_cast<unsigned long long>(reply.requests_served),
              static_cast<unsigned long long>(reply.cache_hits),
              static_cast<unsigned long long>(reply.cache_entries));
  return 0;
}

int client_stats(const ParsedFlags& flags) {
  server::Client client(flags.require("socket"), timeout_from(flags));
  const auto reply = client.stats();
  if (flags.has("prom")) {
    // Prometheus text exposition; scrape-ready via `curl --unix-socket`-
    // style bridges or a sidecar that shells out to this verb. The info
    // gauges describe the DAEMON process (its build, its uptime), not this
    // short-lived CLI.
    obs::Snapshot::ProcessInfo info;
    info.build_type = reply.build_type;
    info.simd = reply.simd;
    info.lane_words = reply.lane_words;
    info.uptime_seconds = static_cast<double>(reply.uptime_ms) / 1000.0;
    std::fputs(reply.snapshot.prometheus("polaris_", &info).c_str(), stdout);
    return 0;
  }
  std::printf("{\"server\":\"polaris\",\"protocol\":%u,\"model\":\"%s\","
              "\"fingerprint\":\"%016llx\",\"build\":\"%s\",\"simd\":\"%s\","
              "\"lane_words\":%llu,\"requests\":%llu,\"connections\":%llu,%s}\n",
              reply.protocol, util::json_escape(reply.model_name).c_str(),
              static_cast<unsigned long long>(reply.config_fingerprint),
              util::json_escape(reply.build_type).c_str(),
              util::json_escape(reply.simd).c_str(),
              static_cast<unsigned long long>(reply.lane_words),
              static_cast<unsigned long long>(reply.requests_served),
              static_cast<unsigned long long>(reply.connections),
              reply.snapshot.json_fragment().c_str());
  return 0;
}

const char* wire_kind_name(std::uint8_t kind) {
  // 0xFF (an undecodable payload's flight record) falls through to "?".
  return server::request_kind_name(static_cast<server::RequestKind>(kind));
}

std::string render_status_json(const server::StatusReply& reply) {
  std::string out;
  util::appendf(out,
                "{\"server\":\"polaris\",\"protocol\":%u,\"model\":\"%s\","
                "\"requests\":%llu,\"connections_active\":%llu,"
                "\"connections_total\":%llu,\"uptime_ms\":%llu,"
                "\"sample_interval_ms\":%llu,\"samples\":%llu,",
                reply.protocol, util::json_escape(reply.model_name).c_str(),
                static_cast<unsigned long long>(reply.requests_served),
                static_cast<unsigned long long>(reply.connections_active),
                static_cast<unsigned long long>(reply.connections_total),
                static_cast<unsigned long long>(reply.uptime_ms),
                static_cast<unsigned long long>(reply.sample_interval_ms),
                static_cast<unsigned long long>(reply.samples));
  out += "\"inflight\":[";
  for (std::size_t i = 0; i < reply.inflight.size(); ++i) {
    const auto& entry = reply.inflight[i];
    util::appendf(out, "%s{\"kind\":\"%s\",\"bytes\":%llu,\"age_us\":%llu}",
                  i == 0 ? "" : ",", wire_kind_name(entry.kind),
                  static_cast<unsigned long long>(entry.bytes),
                  static_cast<unsigned long long>(entry.age_us));
  }
  out += "],\"campaigns\":[";
  for (std::size_t i = 0; i < reply.campaigns.size(); ++i) {
    const auto& row = reply.campaigns[i];
    util::appendf(out,
                  "%s{\"label\":\"%s\",\"sequence\":%llu,\"shards_done\":%zu,"
                  "\"shards_total\":%zu,\"queue_position\":%zu,"
                  "\"age_us\":%llu,\"stopped\":%s}",
                  i == 0 ? "" : ",", util::json_escape(row.label).c_str(),
                  static_cast<unsigned long long>(row.sequence),
                  row.shards_done, row.shards_total, row.queue_position,
                  static_cast<unsigned long long>(row.age_us),
                  row.stopped ? "true" : "false");
  }
  out += "],\"recent\":[";
  for (std::size_t i = 0; i < reply.recent.size(); ++i) {
    const auto& record = reply.recent[i];
    util::appendf(
        out,
        "%s{\"kind\":\"%s\",\"status\":\"%s\",\"cache_hit\":%s,"
        "\"bytes\":%llu,\"duration_us\":%llu,\"age_us\":%llu}",
        i == 0 ? "" : ",", wire_kind_name(record.kind),
        server::to_string(static_cast<server::Status>(record.status)),
        record.cache_hit ? "true" : "false",
        static_cast<unsigned long long>(record.bytes),
        static_cast<unsigned long long>(record.duration_us),
        static_cast<unsigned long long>(record.age_us));
  }
  out += "],\"workers\":[";
  for (std::size_t i = 0; i < reply.workers.size(); ++i) {
    const auto& worker = reply.workers[i];
    util::appendf(
        out,
        "%s{\"endpoint\":\"%s\",\"alive\":%s,\"inflight\":%llu,"
        "\"shards_done\":%llu,\"bytes_out\":%llu,\"bytes_in\":%llu,"
        "\"resends\":%llu}",
        i == 0 ? "" : ",", util::json_escape(worker.endpoint).c_str(),
        worker.alive ? "true" : "false",
        static_cast<unsigned long long>(worker.inflight),
        static_cast<unsigned long long>(worker.shards_done),
        static_cast<unsigned long long>(worker.bytes_out),
        static_cast<unsigned long long>(worker.bytes_in),
        static_cast<unsigned long long>(worker.resends));
  }
  out += "]}";
  return out;
}

void render_status_tables(const server::StatusReply& reply) {
  std::printf("=== polaris daemon: %s ===\n", reply.model_name.c_str());
  // A daemon started without --metrics-file runs no sampler and reports
  // interval 0.
  std::string sampler = "metrics sampler off";
  if (reply.sample_interval_ms != 0) {
    sampler.clear();
    util::appendf(sampler, "%llu metric samples (every %llums)",
                  static_cast<unsigned long long>(reply.samples),
                  static_cast<unsigned long long>(reply.sample_interval_ms));
  }
  std::printf(
      "uptime %.1fs, %llu requests, %llu/%llu connections active, %s\n",
      static_cast<double>(reply.uptime_ms) / 1000.0,
      static_cast<unsigned long long>(reply.requests_served),
      static_cast<unsigned long long>(reply.connections_active),
      static_cast<unsigned long long>(reply.connections_total),
      sampler.c_str());
  std::printf("\nin-flight requests (%zu):\n", reply.inflight.size());
  if (!reply.inflight.empty()) {
    util::Table table({"Kind", "Bytes", "Age (ms)"});
    for (const auto& entry : reply.inflight) {
      table.add_row({wire_kind_name(entry.kind), std::to_string(entry.bytes),
                     util::format_double(
                         static_cast<double>(entry.age_us) / 1000.0, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
  }
  std::printf("\nactive campaigns (%zu):\n", reply.campaigns.size());
  if (!reply.campaigns.empty()) {
    util::Table table(
        {"Label", "Seq", "Shards", "Queue", "Age (ms)", "Stopped"});
    for (const auto& row : reply.campaigns) {
      table.add_row(
          {row.label.empty() ? "(unnamed)" : row.label,
           std::to_string(row.sequence),
           std::to_string(row.shards_done) + "/" +
               std::to_string(row.shards_total),
           std::to_string(row.queue_position),
           util::format_double(static_cast<double>(row.age_us) / 1000.0, 1),
           row.stopped ? "yes" : "no"});
    }
    std::fputs(table.render().c_str(), stdout);
  }
  std::printf("\nrecent requests (%zu, newest first):\n", reply.recent.size());
  if (!reply.recent.empty()) {
    util::Table table(
        {"Kind", "Status", "Cache", "Bytes", "Took (ms)", "Age (ms)"});
    for (const auto& record : reply.recent) {
      table.add_row(
          {wire_kind_name(record.kind),
           server::to_string(static_cast<server::Status>(record.status)),
           record.cache_hit ? "hit" : "miss", std::to_string(record.bytes),
           util::format_double(
               static_cast<double>(record.duration_us) / 1000.0, 1),
           util::format_double(
               static_cast<double>(record.age_us) / 1000.0, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
  }
  // Only daemons started with --workers report a fleet; keep workerless
  // output unchanged.
  if (!reply.workers.empty()) {
    std::printf("\nremote shard workers (%zu):\n", reply.workers.size());
    util::Table table({"Endpoint", "State", "Inflight", "Shards", "Sent",
                       "Received", "Resends"});
    for (const auto& worker : reply.workers) {
      table.add_row({worker.endpoint, worker.alive ? "alive" : "dead",
                     std::to_string(worker.inflight),
                     std::to_string(worker.shards_done),
                     std::to_string(worker.bytes_out),
                     std::to_string(worker.bytes_in),
                     std::to_string(worker.resends)});
    }
    std::fputs(table.render().c_str(), stdout);
  }
}

int client_status(const ParsedFlags& flags) {
  server::Client client(flags.require("socket"), timeout_from(flags));
  const auto reply = client.status();
  if (flags.has("table")) {
    render_status_tables(reply);
  } else {
    std::printf("%s\n", render_status_json(reply).c_str());
  }
  return 0;
}

int client_top(const ParsedFlags& flags) {
  const double interval_s = flags.get_double("interval", 2.0);
  if (!(interval_s > 0.0)) {
    throw UsageError("flag '--interval' must be a positive number of seconds");
  }
  const std::size_t count = flags.get_size("count", 5);

  server::Client client(flags.require("socket"), timeout_from(flags));
  auto previous = client.stats();
  std::int64_t previous_ns = obs::now_ns();
  std::printf("polaris top: %s (interval %.1fs, %zu samples)\n",
              previous.model_name.c_str(), interval_s, count);
  std::printf("%-14s %9s %12s %6s %9s %9s %9s %10s %8s\n", "time", "req/s",
              "traces/s", "hit%", "p50(ms)", "p95(ms)", "inflight",
              "campaigns", "workers");
  for (std::size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    auto current = client.stats();
    const auto status = client.status();
    const std::int64_t now_ns = obs::now_ns();
    const double elapsed =
        static_cast<double>(now_ns - previous_ns) / 1e9;

    // Interval deltas via snapshot subtraction - exact, not an estimator:
    // the delta histogram is precisely the samples recorded this interval.
    obs::Snapshot delta = current.snapshot;
    delta.subtract(previous.snapshot);
    const double requests_rate =
        static_cast<double>(current.requests_served -
                            previous.requests_served) /
        elapsed;
    const double traces_rate =
        static_cast<double>(delta.counter_value("tvla.traces_run")) / elapsed;
    const std::uint64_t hits = delta.counter_value("cache.hits");
    const std::uint64_t misses = delta.counter_value("cache.misses");
    const double hit_pct =
        hits + misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    if (const auto* audit_us = delta.find_histogram("server.audit_us");
        audit_us != nullptr && audit_us->count > 0) {
      p50_ms = audit_us->percentile(0.50) / 1000.0;
      p95_ms = audit_us->percentile(0.95) / 1000.0;
    }
    // HH:MM:SS.mmm of the ISO-8601 UTC timestamp - enough to line samples
    // up against the daemon's log lines.
    const std::string stamp = obs::wall_clock_iso8601().substr(11, 12);
    // alive/total of the daemon's shard-worker fleet; "-" for a daemon
    // serving without --workers.
    std::string fleet = "-";
    if (!status.workers.empty()) {
      std::size_t alive = 0;
      for (const auto& worker : status.workers) alive += worker.alive ? 1 : 0;
      fleet = std::to_string(alive) + "/" + std::to_string(status.workers.size());
    }
    std::printf("%-14s %9.1f %12.0f %6.1f %9.2f %9.2f %9zu %10zu %8s\n",
                stamp.c_str(), requests_rate, traces_rate, hit_pct, p50_ms,
                p95_ms, status.inflight.size(), status.campaigns.size(),
                fleet.c_str());
    std::fflush(stdout);
    previous = std::move(current);
    previous_ns = now_ns;
  }
  return 0;
}

int client_audit(const ParsedFlags& flags) {
  const auto config = config_from_flags(flags);
  const double scale = flags.get_double("scale", 1.0);
  const std::size_t top = flags.get_size("top", 10);

  std::vector<std::string> designs;
  for (const auto& name : util::split(flags.require("design"), ",")) {
    const auto trimmed = util::trim(name);
    if (!trimmed.empty()) designs.emplace_back(trimmed);
  }
  if (designs.empty()) throw UsageError("flag '--design' names no designs");

  // One connection per design, issued concurrently: the daemon funnels
  // every connection's campaigns into its shared scheduler, so multiple
  // designs interleave shard-for-shard exactly like the offline
  // `audit --design a,b,c` path (instead of serializing per round-trip).
  const std::string socket_path = flags.require("socket");
  const std::size_t timeout_ms = timeout_from(flags);
  const bool stream = flags.has("stream");
  std::vector<server::AuditReply> replies(designs.size());
  std::vector<std::exception_ptr> errors(designs.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      workers.emplace_back([&, i] {
        try {
          server::AuditRequest request;
          request.design = designs[i];
          request.scale = scale;
          request.config = config;
          server::Client client(socket_path, timeout_ms);
          if (stream) {
            // Checkpoint notices go to stderr: stdout stays byte-identical
            // to the non-streaming verb for the same request.
            const std::string& design = designs[i];
            replies[i] = client.audit_stream(
                request, [&design](const server::AuditPartial& partial) {
                  double max_t = 0.0;
                  for (const double t : partial.report.t_values()) {
                    max_t = std::max(max_t, std::abs(t));
                  }
                  std::fprintf(stderr,
                               "polaris client: %s checkpoint %llu/%llu "
                               "traces, max |t| %.2f\n",
                               design.c_str(),
                               static_cast<unsigned long long>(
                                   partial.traces_done),
                               static_cast<unsigned long long>(
                                   partial.traces_total),
                               max_t);
                });
          } else {
            replies[i] = client.audit(request);
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const auto& reply : replies) note_cache_hit(reply.cache_hit);

  // Budget-enabled replies carry the traces the campaign actually used;
  // fixed-budget replies leave traces_used at 0 and print the configured
  // count, exactly as before.
  const auto traces_of = [](const server::AuditReply& reply) {
    return reply.traces_used != 0 ? reply.traces_used : reply.traces;
  };

  if (flags.has("json")) {
    if (replies.size() > 1) std::printf("[");
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (i > 0) std::printf(",");
      std::fputs(render_audit_json(replies[i].design_name,
                                   replies[i].gate_count, replies[i].report,
                                   traces_of(replies[i]), top)
                     .c_str(),
                 stdout);
    }
    if (replies.size() > 1) std::printf("]");
    std::printf("\n");
    return 0;
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) std::printf("\n");
    std::fputs(render_audit_table(replies[i].design_name,
                                  replies[i].gate_count, replies[i].report,
                                  traces_of(replies[i]), top)
                   .c_str(),
               stdout);
  }
  return 0;
}

int client_mask(const ParsedFlags& flags) {
  server::MaskRequest request;
  request.design = flags.require("design");
  request.scale = flags.get_double("scale", 1.0);
  request.mask_size = flags.get_size("mask-size", 0);  // 0 = bundle's Msize
  request.mode = mode_from_string(flags.get("mode", "model"));
  request.verify = flags.has("verify");
  const std::string out_path = flags.require("out");

  server::Client client(flags.require("socket"), timeout_from(flags));
  const auto reply = client.mask(request);
  note_cache_hit(reply.cache_hit);
  // Atomic, like the offline path: a flow must never see a truncated .v.
  util::write_file_atomic(out_path, reply.verilog);

  const tvla::LeakageReport* before =
      reply.before.has_value() ? &*reply.before : nullptr;
  const tvla::LeakageReport* after =
      reply.after.has_value() ? &*reply.after : nullptr;
  const auto render = flags.has("json") ? render_mask_json : render_mask_text;
  std::fputs(render(reply.design_name, reply.gate_count, reply.selected.size(),
                    reply.masked_gate_count, reply.seconds, out_path, before,
                    after)
                 .c_str(),
             stdout);
  if (flags.has("json")) std::printf("\n");
  return 0;
}

int client_score(const ParsedFlags& flags) {
  server::ScoreRequest request;
  request.design = flags.require("design");
  request.scale = flags.get_double("scale", 1.0);
  request.mode = mode_from_string(flags.get("mode", "model"));
  const std::size_t top = flags.get_size("top", 10);

  server::Client client(flags.require("socket"), timeout_from(flags));
  const auto reply = client.score(request);
  note_cache_hit(reply.cache_hit);

  // Rank maskable gates (score > 0) by descending score, stable by id.
  std::vector<std::size_t> ranked;
  for (std::size_t g = 0; g < reply.scores.size(); ++g) {
    if (reply.scores[g] > 0.0) ranked.push_back(g);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reply.scores[a] > reply.scores[b];
                   });
  const std::size_t shown = std::min(top, ranked.size());

  if (flags.has("json")) {
    std::printf("{\"design\":\"%s\",\"gates\":%zu,\"scored\":%zu,\"top\":[",
                util::json_escape(reply.design_name).c_str(), reply.scores.size(),
                ranked.size());
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf("%s{\"gate\":%zu,\"score\":%.6f}", i == 0 ? "" : ",",
                  ranked[i], reply.scores[ranked[i]]);
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("=== gate scores: %s (%zu gates, %zu scored) ===\n",
              reply.design_name.c_str(), reply.scores.size(), ranked.size());
  if (shown > 0) {
    util::Table table({"Rank", "Gate", "Score"});
    for (std::size_t i = 0; i < shown; ++i) {
      table.add_row({std::to_string(i + 1), std::to_string(ranked[i]),
                     util::format_double(reply.scores[ranked[i]], 4)});
    }
    std::fputs(table.render().c_str(), stdout);
  }
  return 0;
}

int client_shutdown(const ParsedFlags& flags) {
  server::Client client(flags.require("socket"), timeout_from(flags));
  client.shutdown_server();
  std::printf("shutdown requested\n");
  return 0;
}

}  // namespace

int cmd_client(std::span<const char* const> args) {
  if (args.empty() || std::strcmp(args[0], "--help") == 0 ||
      std::strcmp(args[0], "-h") == 0) {
    std::printf(
        "usage: polaris_cli client <verb> --socket <path.sock> [flags]\n"
        "\n"
        "verbs (each '--help' lists its flags):\n"
        "  ping      daemon liveness, bundle identity, cache stats (JSON)\n"
        "  stats     daemon observability snapshot (JSON, or --prom text)\n"
        "  status    live operations: in-flight requests, campaign\n"
        "            progress, recent-request flight recorder\n"
        "  top       repeated stats+status polls with interval rates\n"
        "  audit     TVLA leakage report, served (same output as 'audit')\n"
        "  mask      masked Verilog, served (same output as 'mask')\n"
        "  score     per-gate masking scores from the served model\n"
        "  shutdown  ask the daemon to drain and exit\n");
    return args.empty() ? 2 : 0;
  }
  const std::string verb = args[0];
  const auto rest = args.subspan(1);

  const FlagSpec socket_spec{"socket", true,
                             "daemon endpoint: Unix-socket path or "
                             "tcp:host:port (required)"};
  const FlagSpec timeout_spec{"timeout-ms", true,
                              "per-request deadline in ms; a silent daemon "
                              "raises a timeout error (default 0 = wait "
                              "forever)"};
  const FlagSpec help_spec{"help", false, "show this help"};

  if (verb == "ping" || verb == "shutdown") {
    const std::vector<FlagSpec> specs = {socket_spec, timeout_spec,
                                         help_spec};
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client %s --socket <path.sock>\n\n%s",
                  verb.c_str(), render_flag_help(specs).c_str());
      return 0;
    }
    return verb == "ping" ? client_ping(flags) : client_shutdown(flags);
  }
  if (verb == "stats") {
    const std::vector<FlagSpec> specs = {
        socket_spec,
        timeout_spec,
        {"prom", false, "Prometheus text exposition instead of JSON"},
        help_spec,
    };
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client stats --socket <path.sock> "
                  "[--prom]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_stats(flags);
  }
  if (verb == "status") {
    const std::vector<FlagSpec> specs = {
        socket_spec,
        timeout_spec,
        {"table", false, "human-readable tables instead of JSON"},
        help_spec,
    };
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client status --socket <path.sock> "
                  "[--table]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_status(flags);
  }
  if (verb == "top") {
    const std::vector<FlagSpec> specs = {
        socket_spec,
        timeout_spec,
        {"interval", true, "seconds between samples (default 2.0)"},
        {"count", true, "samples to print before exiting (default 5)"},
        help_spec,
    };
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client top --socket <path.sock> "
                  "[--interval S] [--count N]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_top(flags);
  }
  if (verb == "audit") {
    std::vector<FlagSpec> specs = config_flag_specs();
    specs.push_back(socket_spec);
    specs.push_back(timeout_spec);
    specs.push_back({"design", true,
                     "suite name(s) or Verilog file(s), comma-separated "
                     "(required)"});
    specs.push_back({"scale", true,
                     "suite design-size scale in (0,1] (default 1.0)"});
    specs.push_back({"top", true, "list the N leakiest gates (default 10)"});
    specs.push_back({"json", false,
                     "emit a JSON object (array when several designs)"});
    specs.push_back({"stream", false,
                     "stream early-stop checkpoint frames (notices on "
                     "stderr; pair with --budget)"});
    specs.push_back(help_spec);
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client audit --socket <path.sock> "
                  "--design <name|file.v>[,...] [flags]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_audit(flags);
  }
  if (verb == "mask") {
    const std::vector<FlagSpec> specs = {
        socket_spec,
        timeout_spec,
        {"design", true, "suite name or Verilog file (required)"},
        {"out", true, "masked Verilog output path (required)"},
        {"scale", true, "suite design-size scale in (0,1] (default 1.0)"},
        {"mask-size", true, "gates to mask (default: the bundle's Msize)"},
        {"mode", true, "model | rules | model+rules (default model)"},
        {"verify", false, "server-side before/after TVLA sign-off"},
        {"json", false, "emit a JSON summary instead of text"},
        help_spec,
    };
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client mask --socket <path.sock> "
                  "--design <name|file.v> --out <masked.v> [flags]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_mask(flags);
  }
  if (verb == "score") {
    const std::vector<FlagSpec> specs = {
        socket_spec,
        timeout_spec,
        {"design", true, "suite name or Verilog file (required)"},
        {"scale", true, "suite design-size scale in (0,1] (default 1.0)"},
        {"mode", true, "model | rules | model+rules (default model)"},
        {"top", true, "list the N best-scoring gates (default 10)"},
        {"json", false, "emit a JSON summary instead of text"},
        help_spec,
    };
    const ParsedFlags flags(rest, specs);
    if (flags.has("help")) {
      std::printf("usage: polaris_cli client score --socket <path.sock> "
                  "--design <name|file.v> [flags]\n\n%s",
                  render_flag_help(specs).c_str());
      return 0;
    }
    return client_score(flags);
  }
  throw UsageError("unknown client verb '" + verb +
                   "'; expected ping, stats, status, top, audit, mask, "
                   "score, or shutdown");
}

}  // namespace polaris::cli
