#include "server/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <concepts>
#include <cstring>
#include <type_traits>

#include "tvla/moments_io.hpp"

namespace polaris::server {

namespace {

// --- LeakageReport codec (t-values travel as IEEE-754 bit patterns) ---------
// A writer and a reader rather than one field list: the reader builds the
// report through its validating constructor.

void write_report(serialize::Writer& out, const tvla::LeakageReport& report) {
  out.f64(report.threshold());
  out.f64_vec(report.t_values());
  std::vector<bool> measured(report.group_count());
  for (std::size_t g = 0; g < measured.size(); ++g) {
    measured[g] = report.measured(static_cast<netlist::GateId>(g));
  }
  out.bool_vec(measured);
}

tvla::LeakageReport read_report(serialize::Reader& in) {
  const double threshold = in.f64();
  auto t_values = in.f64_vec();
  auto measured = in.bool_vec();
  if (measured.size() != t_values.size()) {
    throw std::runtime_error("polaris serve: leakage report size mismatch");
  }
  return tvla::LeakageReport(std::move(t_values), std::move(measured),
                             threshold);
}

// --- low-level socket helpers ----------------------------------------------

/// EAGAIN/EWOULDBLOCK (an SO_*TIMEO expiry) retries unless the probe says
/// to abort - how a handler escapes a peer that stalls mid-transfer.
void check_cancelled(const CancelProbe& cancelled, const char* what) {
  if (cancelled && cancelled()) {
    throw std::runtime_error(std::string("polaris serve: ") + what +
                             " cancelled (shutdown while peer stalled)");
  }
}

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const CancelProbe& cancelled) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that disconnected before its response arrives
    // must surface as EPIPE here, not as a process-killing SIGPIPE - one
    // vanished client must never take the daemon (or the CLI) down.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        check_cancelled(cancelled, "write");
        continue;
      }
      throw std::runtime_error(std::string("polaris serve: socket write: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; EOF mid-buffer always throws (torn frame).
bool read_all(int fd, std::uint8_t* data, std::size_t size, bool eof_ok,
              const CancelProbe& cancelled) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        check_cancelled(cancelled, "read");
        continue;
      }
      throw std::runtime_error(std::string("polaris serve: socket read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("polaris serve: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing: return "ping";
    case RequestKind::kAudit: return "audit";
    case RequestKind::kMask: return "mask";
    case RequestKind::kScore: return "score";
    case RequestKind::kShutdown: return "shutdown";
    case RequestKind::kStats: return "stats";
    case RequestKind::kAuditStream: return "audit_stream";
    case RequestKind::kStatus: return "status";
    case RequestKind::kDesign: return "design";
    case RequestKind::kShard: return "shard";
  }
  return "?";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadMagic: return "bad frame magic";
    case Status::kBadVersion: return "unsupported protocol version";
    case Status::kTooLarge: return "frame exceeds max-frame limit";
    case Status::kBadPayload: return "malformed payload archive";
    case Status::kBadRequest: return "bad request";
    case Status::kServerError: return "server error";
    case Status::kShuttingDown: return "server shutting down";
    case Status::kUnknownDesign: return "design not installed on worker";
  }
  return "?";
}

// --- field lists ------------------------------------------------------------
//
// Each payload layout is stated once, for both directions (see
// serialize/archive.hpp "Field lists"): `R` is `const T` when encoding and
// `T` when decoding. Checks that only make sense on decode (the design
// fingerprint, the non-empty shard range, the role count) run in the
// decode_* functions below, each in one place.

namespace {

template <class R, class T>
concept Msg = std::same_as<std::remove_const_t<R>, T>;

constexpr char kPartialTag[] = "AUDP";

template <class Io, class Kind>
void kind_fields(Io& io, Kind& kind) {
  io.chunk("POLQ", [&] {
    io.u8_enum(kind, RequestKind::kShard, "request kind");
  });
}

template <class Io, Msg<AuditRequest> R>
void fields(Io& io, R& r) {
  io.chunk("AUDQ", [&] {
    io.str(r.design);
    io.f64(r.scale);
    io.nested(r.config, core::write_config, core::read_config);
  });
}

template <class Io, Msg<MaskRequest> R>
void fields(Io& io, R& r) {
  io.chunk("MSKQ", [&] {
    io.str(r.design);
    io.f64(r.scale);
    io.u64(r.mask_size);
    io.u8_enum(r.mode, core::InferenceMode::kModelPlusRules, "inference mode");
    io.boolean(r.verify);
  });
}

template <class Io, Msg<ScoreRequest> R>
void fields(Io& io, R& r) {
  io.chunk("SCRQ", [&] {
    io.str(r.design);
    io.f64(r.scale);
    io.u8_enum(r.mode, core::InferenceMode::kModelPlusRules, "inference mode");
  });
}

/// The design and its fingerprint travel as separate arguments, so the
/// encoder writes the caller's design without copying its netlist.
template <class Io, class Fingerprint, Msg<circuits::Design> D>
void fields(Io& io, Fingerprint& fingerprint, D& design) {
  io.chunk("DSGQ", [&] {
    io.u64(fingerprint);
    io.nested(design, core::write_design, core::read_design);
  });
}

template <class Io, Msg<ShardRequest> R>
void fields(Io& io, R& r) {
  io.chunk("SHRQ", [&] {
    io.u64(r.fingerprint);
    io.nested(r.config, core::write_config, core::read_config);
    io.u64(r.shard_begin);
    io.u64(r.shard_end);
  });
}

template <class Io, Msg<PingReply> R>
void fields(Io& io, R& r) {
  io.chunk("PONG", [&] {
    io.u32(r.protocol);
    io.str(r.model_name);
    io.u64(r.config_fingerprint);
    io.u64(r.requests_served);
    io.u64(r.cache_hits);
    io.u64(r.cache_entries);
    // Runtime identity (absent from pre-obs daemons).
    io.tail(true, [&] {
      io.str(r.build_type);
      io.str(r.simd);
      io.u64(r.lane_words);
    });
  });
}

template <class Io, Msg<AuditReply> R>
void fields(Io& io, R& r) {
  io.chunk("AUDS", [&] {
    io.str(r.design_name);
    io.u64(r.gate_count);
    io.u64(r.traces);
    io.nested(r.report, write_report, read_report);
    // Early-stop outcome: written only when populated, so fixed-budget
    // replies keep the pre-budget bytes.
    io.tail(r.traces_used != 0 || r.early_stopped, [&] {
      io.u64(r.traces_used);
      io.boolean(r.early_stopped);
    });
  });
}

template <class Io, Msg<AuditPartial> R>
void fields(Io& io, R& r) {
  io.chunk(kPartialTag, [&] {
    io.u64(r.traces_done);
    io.u64(r.traces_total);
    io.nested(r.report, write_report, read_report);
  });
}

template <class Io, Msg<MaskReply> R>
void fields(Io& io, R& r) {
  io.chunk("MSKS", [&] {
    io.str(r.design_name);
    io.u64(r.gate_count);
    io.u64(r.masked_gate_count);
    io.seq(r.selected, 4, [&](auto& gate) { io.u32(gate); });
    io.f64(r.seconds);
    io.str(r.verilog);
    bool verified = r.before.has_value();
    io.boolean(verified);
    if (verified) {
      io.nested(r.before, write_report, read_report);
      io.nested(r.after, write_report, read_report);
    }
  });
}

template <class Io, Msg<ScoreReply> R>
void fields(Io& io, R& r) {
  io.chunk("SCRS", [&] {
    io.str(r.design_name);
    io.f64_vec(r.scores);
  });
}

template <class Io, Msg<ShardReply> R>
void fields(Io& io, R& r) {
  // A shard entry is at least 52 bytes: its u64 index, the moments
  // block's 12-byte MOMC chunk header (tag and u64 length) and its four
  // u64 counts.
  io.chunk("SHRS", [&] {
    io.seq(r.shards, 52, [&](auto& result) {
      io.u64(result.shard);
      io.nested(result.moments, tvla::write_moments, tvla::read_moments);
    });
  });
}

template <class Io, Msg<StatsReply> R>
void fields(Io& io, R& r) {
  io.chunk("STTS", [&] {
    io.u32(r.protocol);
    io.str(r.model_name);
    io.u64(r.config_fingerprint);
    io.str(r.build_type);
    io.str(r.simd);
    io.u64(r.lane_words);
    io.u64(r.requests_served);
    io.u64(r.connections);
    io.tail(true, [&] { io.u64(r.uptime_ms); });  // absent pre-status
  });
  // The registry snapshot: a counter is at least a length-prefixed name
  // plus a u64, a histogram at least four u64-sized fields, a bucket
  // exactly 12 bytes.
  io.chunk("SNAP", [&] {
    io.seq(r.snapshot.counters, 16, [&](auto& counter) {
      io.str(counter.name);
      io.u64(counter.value);
    });
    io.seq(r.snapshot.histograms, 32, [&](auto& histogram) {
      io.str(histogram.name);
      io.u64(histogram.count);
      io.u64(histogram.sum);
      io.seq(histogram.buckets, 12, [&](auto& bucket) {
        io.u32(bucket.first);
        io.u64(bucket.second);
      });
    });
  });
}

template <class Io, Msg<StatusReply> R>
void fields(Io& io, R& r) {
  io.chunk("STAT", [&] {
    io.u32(r.protocol);
    io.str(r.model_name);
    io.u64(r.requests_served);
    io.u64(r.connections_active);
    io.u64(r.connections_total);
    io.u64(r.uptime_ms);
    io.u64(r.sample_interval_ms);
    io.u64(r.samples);
  });
  // An in-flight entry is exactly 17 bytes, a progress row at least a
  // length-prefixed label plus five u64s, a flight record exactly 27
  // bytes, a worker row at least a length-prefixed endpoint, a bool and
  // five u64s.
  io.chunk("INFL", [&] {
    io.seq(r.inflight, 17, [&](auto& entry) {
      io.u8(entry.kind);
      io.u64(entry.bytes);
      io.u64(entry.age_us);
    });
  });
  io.chunk("PROG", [&] {
    io.seq(r.campaigns, 48, [&](auto& row) {
      io.str(row.label);
      io.u64(row.sequence);
      io.u64(row.shards_done);
      io.u64(row.shards_total);
      io.u64(row.queue_position);
      io.u64(row.age_us);
      io.boolean(row.stopped);
    });
  });
  io.chunk("FREC", [&] {
    io.seq(r.recent, 27, [&](auto& record) {
      io.u8(record.kind);
      io.u8(record.status);
      io.boolean(record.cache_hit);
      io.u64(record.bytes);
      io.u64(record.duration_us);
      io.u64(record.age_us);
    });
  });
  // Worker-fleet health, only when a fleet exists: workerless daemons
  // keep the pre-distributed bytes.
  io.opt_chunk("WRKR", !r.workers.empty(), [&] {
    io.seq(r.workers, 49, [&](auto& worker) {
      io.str(worker.endpoint);
      io.boolean(worker.alive);
      io.u64(worker.inflight);
      io.u64(worker.shards_done);
      io.u64(worker.bytes_out);
      io.u64(worker.bytes_in);
      io.u64(worker.resends);
    });
  });
}

/// The response envelope; `body` is a span when encoding and the
/// Response's vector when decoding.
template <class Io, class St, class Message, class Flag, class Body>
void envelope_fields(Io& io, St& status, Message& message, Flag& cache_hit,
                     Body& body) {
  io.chunk("POLS", [&] {
    io.u8_enum(status, Status::kUnknownDesign, "status code");
    io.str(message);
    io.boolean(cache_hit);
  });
  io.opt_chunk("BODY", !body.empty(), [&] { io.u8_vec(body); });
}

template <class... Parts>
std::vector<std::uint8_t> encode_request(RequestKind kind,
                                         const Parts&... parts) {
  serialize::Writer out;
  kind_fields(out, kind);
  if constexpr (sizeof...(Parts) > 0) fields(out, parts...);
  return out.finish();
}

template <class R>
std::vector<std::uint8_t> encode_body(const R& reply) {
  serialize::Writer out;
  fields(out, reply);
  return out.finish();
}

template <class R>
R decode_body(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  R reply;
  fields(in, reply);
  return reply;
}

template <class R>
R decode_request(serialize::Reader& in) {
  R request;
  fields(in, request);
  return request;
}

}  // namespace

// --- request codecs ---------------------------------------------------------

std::vector<std::uint8_t> encode_ping_request() {
  return encode_request(RequestKind::kPing);
}

std::vector<std::uint8_t> encode_shutdown_request() {
  return encode_request(RequestKind::kShutdown);
}

std::vector<std::uint8_t> encode_stats_request() {
  return encode_request(RequestKind::kStats);
}

std::vector<std::uint8_t> encode_status_request() {
  return encode_request(RequestKind::kStatus);
}

std::vector<std::uint8_t> encode_audit_request(const AuditRequest& request) {
  return encode_request(RequestKind::kAudit, request);
}

std::vector<std::uint8_t> encode_audit_stream_request(
    const AuditRequest& request) {
  return encode_request(RequestKind::kAuditStream, request);
}

std::vector<std::uint8_t> encode_mask_request(const MaskRequest& request) {
  return encode_request(RequestKind::kMask, request);
}

std::vector<std::uint8_t> encode_score_request(const ScoreRequest& request) {
  return encode_request(RequestKind::kScore, request);
}

std::vector<std::uint8_t> encode_design_request(const circuits::Design& design) {
  return encode_request(RequestKind::kDesign, core::design_fingerprint(design),
                        design);
}

std::vector<std::uint8_t> encode_shard_request(const ShardRequest& request) {
  return encode_request(RequestKind::kShard, request);
}

RequestKind decode_request_kind(serialize::Reader& in) {
  RequestKind kind{};
  kind_fields(in, kind);
  return kind;
}

AuditRequest decode_audit_request(serialize::Reader& in) {
  return decode_request<AuditRequest>(in);
}

MaskRequest decode_mask_request(serialize::Reader& in) {
  return decode_request<MaskRequest>(in);
}

ScoreRequest decode_score_request(serialize::Reader& in) {
  return decode_request<ScoreRequest>(in);
}

DesignRequest decode_design_request(serialize::Reader& in) {
  DesignRequest request;
  fields(in, request.fingerprint, request.design);
  if (request.design.roles.size() !=
      request.design.netlist.primary_inputs().size()) {
    throw std::runtime_error("polaris serve: design role count does not "
                             "match primary input count");
  }
  // Content check: the recomputed fingerprint must equal the advertised
  // one, or a corrupted/mistranslated design would contaminate every shard
  // result filed under this key.
  if (core::design_fingerprint(request.design) != request.fingerprint) {
    throw std::runtime_error("polaris serve: design fingerprint mismatch "
                             "after decode");
  }
  return request;
}

ShardRequest decode_shard_request(serialize::Reader& in) {
  auto request = decode_request<ShardRequest>(in);
  if (request.shard_begin >= request.shard_end) {
    throw std::runtime_error("polaris serve: empty shard range");
  }
  return request;
}

// --- reply codecs -----------------------------------------------------------

std::vector<std::uint8_t> encode_ping_reply(const PingReply& reply) {
  return encode_body(reply);
}

PingReply decode_ping_reply(std::span<const std::uint8_t> body) {
  return decode_body<PingReply>(body);
}

std::vector<std::uint8_t> encode_audit_reply(const AuditReply& reply) {
  return encode_body(reply);
}

AuditReply decode_audit_reply(std::span<const std::uint8_t> body) {
  auto reply = decode_body<AuditReply>(body);
  reply.report.set_trace_usage(reply.traces_used, reply.early_stopped);
  return reply;
}

std::vector<std::uint8_t> encode_audit_partial(const AuditPartial& partial) {
  return encode_body(partial);
}

AuditPartial decode_audit_partial(std::span<const std::uint8_t> body) {
  auto partial = decode_body<AuditPartial>(body);
  partial.report.set_trace_usage(partial.traces_done, false);
  return partial;
}

bool is_audit_partial(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  return in.peek_tag() == kPartialTag;
}

std::vector<std::uint8_t> encode_mask_reply(const MaskReply& reply) {
  return encode_body(reply);
}

MaskReply decode_mask_reply(std::span<const std::uint8_t> body) {
  return decode_body<MaskReply>(body);
}

std::vector<std::uint8_t> encode_score_reply(const ScoreReply& reply) {
  return encode_body(reply);
}

ScoreReply decode_score_reply(std::span<const std::uint8_t> body) {
  return decode_body<ScoreReply>(body);
}

std::vector<std::uint8_t> encode_shard_reply(const ShardReply& reply) {
  return encode_body(reply);
}

ShardReply decode_shard_reply(std::span<const std::uint8_t> body) {
  return decode_body<ShardReply>(body);
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& reply) {
  return encode_body(reply);
}

StatsReply decode_stats_reply(std::span<const std::uint8_t> body) {
  return decode_body<StatsReply>(body);
}

std::vector<std::uint8_t> encode_status_reply(const StatusReply& reply) {
  return encode_body(reply);
}

StatusReply decode_status_reply(std::span<const std::uint8_t> body) {
  return decode_body<StatusReply>(body);
}

// --- response envelope ------------------------------------------------------

std::vector<std::uint8_t> encode_response(Status status,
                                          const std::string& message,
                                          bool cache_hit,
                                          std::span<const std::uint8_t> body) {
  serialize::Writer out;
  envelope_fields(out, status, message, cache_hit, body);
  return out.finish();
}

Response decode_response(std::vector<std::uint8_t> payload) {
  serialize::Reader in(std::move(payload));
  Response response;
  envelope_fields(in, response.status, response.message, response.cache_hit,
                  response.body);
  return response;
}

// --- frame I/O --------------------------------------------------------------

FrameResult read_frame(int fd, std::size_t max_frame,
                       std::vector<std::uint8_t>& payload,
                       const CancelProbe& cancelled) {
  std::uint8_t header[kFrameHeaderSize];
  if (!read_all(fd, header, sizeof(header), /*eof_ok=*/true, cancelled)) {
    return FrameResult::kClosed;
  }
  if (std::memcmp(header, kFrameMagic, 4) != 0) return FrameResult::kBadMagic;
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
  }
  if (version > kProtocolVersion) return FrameResult::kBadVersion;
  std::uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<std::uint64_t>(header[8 + i]) << (8 * i);
  }
  // The max-frame gate runs BEFORE the payload buffer exists: a corrupt or
  // hostile length field never drives an allocation.
  if (length > max_frame) return FrameResult::kTooLarge;
  payload.resize(static_cast<std::size_t>(length));
  if (length > 0) {
    read_all(fd, payload.data(), payload.size(), /*eof_ok=*/false, cancelled);
  }
  return FrameResult::kFrame;
}

void write_frame(int fd, std::span<const std::uint8_t> payload,
                 const CancelProbe& cancelled) {
  std::uint8_t header[kFrameHeaderSize];
  std::memcpy(header, kFrameMagic, 4);
  for (int i = 0; i < 4; ++i) {
    header[4 + i] = static_cast<std::uint8_t>(kProtocolVersion >> (8 * i));
  }
  const std::uint64_t length = payload.size();
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  write_all(fd, header, sizeof(header), cancelled);
  if (!payload.empty()) {
    write_all(fd, payload.data(), payload.size(), cancelled);
  }
}

}  // namespace polaris::server
