// Wire protocol of the POLARIS serve daemon (see DESIGN.md "Serve wire
// protocol" for the normative spec).
//
// A connection carries a sequence of independent frames, each:
//
//   magic   "PLFR"  (4 bytes)
//   version u32 LE  (kProtocolVersion; readers reject newer)
//   length  u64 LE  (payload byte count; checked against the receiver's
//                    max-frame limit BEFORE any allocation)
//   payload         a complete serialize:: archive (own magic + CRC), so
//                   payload decoding inherits the archive's endian safety,
//                   corruption detection, and check-before-allocate
//                   hardening for free.
//
// Request payload:  "POLQ" chunk (kind byte) + one kind-specific chunk.
// Response payload: "POLS" chunk (status, message, cache_hit) + "BODY"
// chunk wrapping the kind-specific reply as a nested archive. The nested
// archive is exactly what the result cache stores, so a cache hit replays
// byte-identical reply bytes.
//
// Error handling: a malformed frame gets a structured error RESPONSE
// (status != kOk) rather than a dropped connection. Errors that leave the
// byte stream unsynchronizable (bad magic, future version, oversized
// length) are answered and then the connection is closed; payload-level
// errors (archive CRC mismatch, unknown request kind) keep it open - the
// framing was intact, so the next frame boundary is known.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/suite.hpp"
#include "core/config.hpp"
#include "core/polaris.hpp"
#include "engine/scheduler.hpp"
#include "netlist/netlist.hpp"
#include "obs/obs.hpp"
#include "serialize/archive.hpp"
#include "tvla/tvla.hpp"

namespace polaris::server {

inline constexpr char kFrameMagic[4] = {'P', 'L', 'F', 'R'};
inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Default --max-frame: generous for netlist-sized payloads, small enough
/// that a corrupt length field cannot drive a multi-GiB allocation.
inline constexpr std::size_t kDefaultMaxFrame = std::size_t{64} << 20;

enum class RequestKind : std::uint8_t {
  kPing = 0,
  kAudit = 1,
  kMask = 2,
  kScore = 3,
  kShutdown = 4,
  kStats = 5,  // registry snapshot; unknown to pre-obs servers, which
               // answer kBadPayload and keep the connection open - no
               // protocol version bump needed
  kAuditStream = 6,  // audit with per-checkpoint partial frames (budget-
                     // enabled configs); same AUDQ payload and cache key
                     // as kAudit. Unknown to older servers: kBadPayload,
                     // connection stays open, no version bump.
  kStatus = 7,  // live-operations snapshot: in-flight requests, campaign
                // progress, flight-recorder ring. Pure telemetry, never
                // cached. Unknown to older servers: kBadPayload, same
                // append-only contract as kStats - no version bump.
  kDesign = 8,  // distributed execution: install a netlist + roles under
                // its design fingerprint in a worker's plan cache, so the
                // shard requests that follow can reference it by the
                // 8-byte fingerprint alone. Empty-body kOk ack.
  kShard = 9,   // distributed execution: run a contiguous shard range of a
                // TVLA campaign against an installed design; the reply
                // ships per-shard UNMERGED CampaignMoments so the
                // coordinator merges them in the exact single-host order
                // (bit-identical audits at any worker count).
};

/// Short lowercase name for a request kind ("ping", "audit", ...), used in
/// log lines, span args, and the flight recorder. Never "?" for a kind
/// decode_request_kind accepts.
[[nodiscard]] const char* request_kind_name(RequestKind kind);

/// On-the-wire status codes (append-only, like every on-disk enum).
enum class Status : std::uint8_t {
  kOk = 0,
  kBadMagic = 1,     // frame header did not start with "PLFR"
  kBadVersion = 2,   // frame protocol version newer than this server
  kTooLarge = 3,     // declared payload length exceeds --max-frame
  kBadPayload = 4,   // payload archive failed to parse (CRC, truncation)
  kBadRequest = 5,   // well-formed payload, invalid request (bad design...)
  kServerError = 6,  // request failed while executing
  kShuttingDown = 7, // server is draining; request not accepted
  kUnknownDesign = 8, // kShard named a fingerprint this worker has not
                      // seen; the coordinator answers by re-sending
                      // kDesign and retrying the shard request
};

[[nodiscard]] const char* to_string(Status status);

/// An error reply from the server, rethrown client-side. Inherits
/// std::runtime_error so every served failure exits 1 from the CLI -
/// exactly like its offline counterpart (an unknown design is a runtime
/// failure there too; only flag misuse exits 2).
struct ServerError : std::runtime_error {
  ServerError(Status status, const std::string& message)
      : std::runtime_error(message), status(status) {}
  Status status;
};

/// A client-side deadline expired while waiting on the peer (see
/// Client's timeout_ms option). Distinct from ServerError - the server
/// never answered, so the request may or may not have executed; callers
/// that care (the distributed coordinator) catch this type and requeue.
struct TimeoutError : std::runtime_error {
  explicit TimeoutError(const std::string& message)
      : std::runtime_error(message) {}
};

// --- requests ---------------------------------------------------------------

struct AuditRequest {
  std::string design;  // suite name or .v path, resolved server-side
  double scale = 1.0;
  /// Full config: the audit result depends on the TVLA knobs and seed, so
  /// the request carries exactly what the offline CLI would have built.
  core::PolarisConfig config;
};

struct MaskRequest {
  std::string design;
  double scale = 1.0;
  std::size_t mask_size = 0;  // 0 = the bundle's configured Msize
  core::InferenceMode mode = core::InferenceMode::kModel;
  bool verify = false;  // before/after TVLA sign-off on top
};

struct ScoreRequest {
  std::string design;
  double scale = 1.0;
  core::InferenceMode mode = core::InferenceMode::kModel;
};

/// Installs a design in a worker's compiled-plan cache. Carries the FULL
/// netlist (nets, gates, groups, ports) plus per-input roles, keyed by its
/// content fingerprint (core::design_fingerprint) - the worker recomputes
/// the fingerprint after decoding and rejects a mismatch, so a corrupted
/// design can never silently contaminate shard results.
struct DesignRequest {
  std::uint64_t fingerprint = 0;
  circuits::Design design;
};

/// One work unit: run shards [shard_begin, shard_end) of the campaign that
/// `config` and the installed design `fingerprint` determine. The config
/// travels in canonical serialized form, which zeroes the host-local
/// `threads` knob - and lane_words is never serialized at all - so the
/// work unit pins the RESULT, not the execution strategy: the worker is
/// free to pick its own thread count and SIMD width.
struct ShardRequest {
  std::uint64_t fingerprint = 0;
  core::PolarisConfig config;
  std::uint64_t shard_begin = 0;
  std::uint64_t shard_end = 0;
};

// --- replies ----------------------------------------------------------------

struct PingReply {
  std::uint32_t protocol = kProtocolVersion;
  std::string model_name;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_entries = 0;
  // Version/runtime identity (appended fields; see obs::runtime_info):
  // what kernel is this daemon actually running?
  std::string build_type;
  std::string simd;
  std::uint64_t lane_words = 0;
};

/// Registry snapshot plus the same runtime identity as PingReply. The
/// snapshot is process-wide execution telemetry - by the obs contract it
/// never feeds a fingerprint, so stats responses are never cached.
struct StatsReply {
  std::uint32_t protocol = kProtocolVersion;
  std::string model_name;
  std::uint64_t config_fingerprint = 0;
  std::string build_type;
  std::string simd;
  std::uint64_t lane_words = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t connections = 0;
  obs::Snapshot snapshot;
  /// Milliseconds since the daemon started (appended field; 0 from older
  /// servers). Lets `client stats --prom` export polaris_uptime_seconds.
  std::uint64_t uptime_ms = 0;
};

/// One request currently being serviced by a handler thread (decoded but
/// not yet answered) at the instant the status snapshot was taken.
struct InflightEntry {
  std::uint8_t kind = 0;        // RequestKind as sent on the wire
  std::uint64_t bytes = 0;      // request payload size
  std::uint64_t age_us = 0;     // time since the payload was decoded
};

/// One completed request from the server's flight-recorder ring.
struct FlightRecordEntry {
  std::uint8_t kind = 0;
  std::uint8_t status = 0;       // Status the response carried
  bool cache_hit = false;
  std::uint64_t bytes = 0;       // request payload size
  std::uint64_t duration_us = 0; // decode-to-encode service time
  std::uint64_t age_us = 0;      // time since completion
};

/// Health of one remote worker as seen by the coordinator's worker pool.
/// Pure telemetry, same caveats as the rest of the status snapshot.
struct WorkerHealthEntry {
  std::string endpoint;          // display form of the worker's endpoint
  bool alive = true;             // false once the feeder thread gave up
  std::uint64_t inflight = 0;    // shard chunks sent but not yet answered
  std::uint64_t shards_done = 0; // shards whose moments arrived
  std::uint64_t bytes_out = 0;   // request payload bytes shipped
  std::uint64_t bytes_in = 0;    // moments payload bytes received
  std::uint64_t resends = 0;     // chunks requeued after loss/timeout
};

/// Live-operations snapshot: what the daemon is doing RIGHT NOW (in-flight
/// requests, per-campaign shard progress) plus what it just finished (the
/// flight-recorder ring, newest first). Point-in-time telemetry gathered
/// under the scheduler/connection locks - never cached, never part of any
/// fingerprint or result.
struct StatusReply {
  std::uint32_t protocol = kProtocolVersion;
  std::string model_name;
  std::uint64_t requests_served = 0;
  std::uint64_t connections_active = 0;  // handler threads currently open
  std::uint64_t connections_total = 0;   // accepted since startup
  std::uint64_t uptime_ms = 0;
  std::uint64_t sample_interval_ms = 0;  // metrics sampler period (0 = off)
  std::uint64_t samples = 0;             // metrics snapshots taken
  std::vector<InflightEntry> inflight;
  std::vector<engine::CampaignProgress> campaigns;
  std::vector<FlightRecordEntry> recent;  // newest first
  /// Remote-worker fleet health (appended "WRKR" chunk; empty from
  /// daemons without --workers and from pre-distributed daemons).
  std::vector<WorkerHealthEntry> workers;
};

struct AuditReply {
  std::string design_name;
  std::uint64_t gate_count = 0;
  std::uint64_t traces = 0;
  tvla::LeakageReport report{{}, {}, 0.0};
  bool cache_hit = false;
  // Early-stop outcome (appended fields; zero/false from pre-budget
  // servers or fixed-budget runs).
  std::uint64_t traces_used = 0;
  bool early_stopped = false;
};

/// One streaming checkpoint frame: the partial report computed from the
/// traces collected so far. A kAuditStream response is a sequence of kOk
/// frames whose BODY is an "AUDP" archive (one per checkpoint, possibly
/// zero), terminated by a normal "AUDS" body - byte-identical to (and
/// cached as) the non-streaming reply.
struct AuditPartial {
  std::uint64_t traces_done = 0;
  std::uint64_t traces_total = 0;
  tvla::LeakageReport report{{}, {}, 0.0};
};

struct MaskReply {
  std::string design_name;
  std::uint64_t gate_count = 0;         // original design
  std::uint64_t masked_gate_count = 0;  // after composite insertion
  std::vector<netlist::GateId> selected;
  double seconds = 0.0;  // inference + rewrite, measured at compute time
  std::string verilog;   // the masked netlist, exactly what mask would write
  std::optional<tvla::LeakageReport> before;  // only when verify was set
  std::optional<tvla::LeakageReport> after;
  bool cache_hit = false;
};

struct ScoreReply {
  std::string design_name;
  std::vector<double> scores;  // per gate id, non-maskable = 0
  bool cache_hit = false;
};

/// One shard's UNMERGED statistics block, exactly as the shard loop
/// accumulated it. Per-shard moments are a pure function of (design,
/// config, shard index) - independent of lane width, thread count, and
/// host - which is what lets the coordinator merge them in ascending
/// shard order and land on bit-identical audit output.
struct ShardResult {
  std::uint64_t shard = 0;
  tvla::CampaignMoments moments;
};

struct ShardReply {
  std::vector<ShardResult> shards;  // ascending shard index
};

// --- payload codecs ---------------------------------------------------------
//
// Each payload layout is stated once, as a field list in protocol.cpp that
// the encoder and the decoder both run (DESIGN.md "Serve wire protocol").

/// Request payload archives. decode_request_kind reads the "POLQ" chunk;
/// the kind-specific decoder must then be called on the same reader.
[[nodiscard]] std::vector<std::uint8_t> encode_ping_request();
[[nodiscard]] std::vector<std::uint8_t> encode_shutdown_request();
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request();
[[nodiscard]] std::vector<std::uint8_t> encode_status_request();
[[nodiscard]] std::vector<std::uint8_t> encode_audit_request(const AuditRequest& request);
/// Same AUDQ payload as encode_audit_request under kind kAuditStream.
[[nodiscard]] std::vector<std::uint8_t> encode_audit_stream_request(
    const AuditRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_mask_request(const MaskRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_score_request(const ScoreRequest& request);
/// Design install; the fingerprint is computed from `design` internally so
/// sender and receiver can never disagree on the key derivation.
[[nodiscard]] std::vector<std::uint8_t> encode_design_request(
    const circuits::Design& design);
[[nodiscard]] std::vector<std::uint8_t> encode_shard_request(
    const ShardRequest& request);

[[nodiscard]] RequestKind decode_request_kind(serialize::Reader& in);
[[nodiscard]] AuditRequest decode_audit_request(serialize::Reader& in);
[[nodiscard]] MaskRequest decode_mask_request(serialize::Reader& in);
[[nodiscard]] ScoreRequest decode_score_request(serialize::Reader& in);
[[nodiscard]] DesignRequest decode_design_request(serialize::Reader& in);
[[nodiscard]] ShardRequest decode_shard_request(serialize::Reader& in);

/// Reply BODY archives (the nested archive the result cache stores).
[[nodiscard]] std::vector<std::uint8_t> encode_ping_reply(const PingReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_audit_reply(const AuditReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_mask_reply(const MaskReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_score_reply(const ScoreReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_reply(const StatsReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_status_reply(const StatusReply& reply);

/// Partial-checkpoint bodies for the streaming audit. is_audit_partial
/// peeks the body's leading chunk tag so a streaming client can tell an
/// AUDP checkpoint from the final AUDS reply without trial decoding.
[[nodiscard]] std::vector<std::uint8_t> encode_audit_partial(
    const AuditPartial& partial);
[[nodiscard]] AuditPartial decode_audit_partial(
    std::span<const std::uint8_t> body);
[[nodiscard]] bool is_audit_partial(std::span<const std::uint8_t> body);

[[nodiscard]] PingReply decode_ping_reply(std::span<const std::uint8_t> body);
[[nodiscard]] AuditReply decode_audit_reply(std::span<const std::uint8_t> body);
[[nodiscard]] MaskReply decode_mask_reply(std::span<const std::uint8_t> body);
[[nodiscard]] ScoreReply decode_score_reply(std::span<const std::uint8_t> body);
[[nodiscard]] StatsReply decode_stats_reply(std::span<const std::uint8_t> body);
[[nodiscard]] StatusReply decode_status_reply(std::span<const std::uint8_t> body);
[[nodiscard]] std::vector<std::uint8_t> encode_shard_reply(const ShardReply& reply);
[[nodiscard]] ShardReply decode_shard_reply(std::span<const std::uint8_t> body);

/// Full response payload: POLS header (status/message/cache_hit) + BODY.
/// `body` may be empty for error responses and ping-less bodies.
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    Status status, const std::string& message, bool cache_hit,
    std::span<const std::uint8_t> body);

struct Response {
  Status status = Status::kOk;
  std::string message;
  bool cache_hit = false;
  std::vector<std::uint8_t> body;  // nested reply archive (empty on error)
};
[[nodiscard]] Response decode_response(std::vector<std::uint8_t> payload);

// --- frame I/O over a connected socket --------------------------------------

/// Outcome of read_frame: distinguishes "peer closed cleanly between
/// frames" from "frame arrived" and from header-level protocol errors.
enum class FrameResult : std::uint8_t {
  kFrame,       // payload filled in
  kClosed,      // EOF at a frame boundary (clean close)
  kBadMagic,    // header corrupt: connection cannot be resynchronized
  kBadVersion,  // protocol newer than ours: drop after replying
  kTooLarge,    // declared length above max_frame: drop after replying
};

/// Optional cancellation probe for the blocking frame I/O below. It is
/// consulted whenever a read/write times out (which requires the fd to
/// carry SO_RCVTIMEO/SO_SNDTIMEO - the server sets both on every accepted
/// connection); returning true aborts the transfer with
/// std::runtime_error. A stalled peer can therefore never pin a handler
/// thread across a shutdown drain.
using CancelProbe = std::function<bool()>;

/// Reads one frame. Blocks until a full frame, clean EOF, or error; the
/// payload buffer is only allocated after the declared length passes the
/// `max_frame` check. Throws std::runtime_error on socket I/O errors,
/// mid-frame EOF (torn frame - nothing to answer), or cancellation.
[[nodiscard]] FrameResult read_frame(int fd, std::size_t max_frame,
                                     std::vector<std::uint8_t>& payload,
                                     const CancelProbe& cancelled = {});

/// Writes one frame (header + payload). Throws std::runtime_error on
/// socket errors or cancellation.
void write_frame(int fd, std::span<const std::uint8_t> payload,
                 const CancelProbe& cancelled = {});

}  // namespace polaris::server
