// Distributed shard execution end to end: the moments/design/shard wire
// codecs must round-trip bit-exactly, and a WorkerPool audit over real TCP
// workers must produce reports bit-identical to the single-host scheduler
// path at ANY worker count - zero, one, many, a dead endpoint in the list,
// or a worker killed mid-campaign (its unacknowledged shards requeue onto
// the surviving lanes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "masking/masking.hpp"
#include "netlist/netlist_io.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/remote.hpp"
#include "server/worker.hpp"
#include "techlib/techlib.hpp"
#include "tvla/moments_io.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

core::PolarisConfig audit_config() {
  core::PolarisConfig config;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 7;
  config.tvla.seed = 7;
  return config;
}

std::vector<circuits::Design> suite_designs() {
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 0.3));
  designs.push_back(circuits::load_design("square", 0.3));
  return designs;
}

void expect_reports_bit_identical(const tvla::LeakageReport& a,
                                  const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g;
  }
  EXPECT_EQ(a.threshold(), b.threshold());
  EXPECT_EQ(a.traces_used(), b.traces_used());
  EXPECT_EQ(a.early_stopped(), b.early_stopped());
}

/// An in-process worker fleet on ephemeral loopback ports, plus the
/// comma-separated endpoint list a coordinator consumes.
struct Fleet {
  std::vector<std::unique_ptr<server::Worker>> workers;
  std::string endpoints;

  explicit Fleet(std::size_t count, std::size_t threads = 1) {
    for (std::size_t i = 0; i < count; ++i) {
      server::WorkerOptions options;
      options.listen = "tcp:127.0.0.1:0";
      options.threads = threads;
      auto worker = std::make_unique<server::Worker>(options);
      worker->start();
      if (!endpoints.empty()) endpoints += ",";
      endpoints += server::net::to_string(worker->endpoint());
      workers.push_back(std::move(worker));
    }
  }
  ~Fleet() {
    for (auto& worker : workers) {
      worker->request_stop();
      worker->wait();
    }
  }
};

// --- wire codecs -------------------------------------------------------------

TEST(DistributedCodec, MomentsRoundTripBitExactly) {
  // A masked voter carries multi-member groups (the mean/S2 path); des3 at
  // the benchmark's 65536 traces is the large single-group case the varint
  // counters shrink.
  auto masked_voter = circuits::load_design("voter", 0.3);
  std::vector<netlist::GateId> targets;
  for (netlist::GateId g = 0; g < masked_voter.netlist.gate_count(); ++g) {
    const auto type = masked_voter.netlist.gate(g).type;
    if (netlist::is_maskable(type) && g % 3 == 0) targets.push_back(g);
  }
  masked_voter.netlist =
      masking::apply_masking(masked_voter.netlist, targets).design;
  struct Case {
    circuits::Design design;
    std::size_t traces;
    bool masked;
  };
  for (const Case& c : {Case{std::move(masked_voter), 512, true},
                        Case{circuits::load_design("des3", 1.0), 65536,
                             false}}) {
    SCOPED_TRACE(c.design.name);
    const auto& design = c.design;
    auto config = audit_config();
    config.tvla.traces = c.traces;
    tvla::ShardRunner runner(design.netlist, lib(),
                             core::tvla_config_for(config, design));
    ASSERT_GE(runner.shard_count(), 2u);
    const auto moments = runner.run_shard(1);
    if (c.masked) {
      ASSERT_GT(moments.multi_group_count(), 0u);
    }

    serialize::Writer out;
    tvla::write_moments(out, moments);
    const auto bytes = out.finish();

    serialize::Reader in(bytes);
    const auto back = tvla::read_moments(in);

    // Re-encoding the decoded state must reproduce the archive byte for
    // byte - the state survived the trip with every IEEE-754 bit pattern
    // intact, which is exactly what the coordinator's merge requires.
    serialize::Writer again;
    tvla::write_moments(again, back);
    EXPECT_EQ(bytes, again.finish());

    if (!c.masked) {
      // The same block in the dense layout of older builds: archive
      // framing (16 bytes), chunk prefix (12), four u64 counts, two u64
      // per single group and two 40-byte accumulators per multi group.
      const std::size_t dense = 16 + 12 + 32 + 16 * moments.group_count() +
                                80 * moments.multi_group_count();
      EXPECT_LT(bytes.size() * 4, dense);
    }
  }
}

/// A "MOMC" chunk with the given header and raw bytes after it.
std::vector<std::uint8_t> raw_moments_block(std::uint64_t n_fixed,
                                            std::uint64_t n_random,
                                            std::uint64_t groups,
                                            std::uint64_t multis,
                                            std::vector<std::uint8_t> body) {
  serialize::Writer out;
  out.begin_chunk("MOMC");
  out.u64(n_fixed);
  out.u64(n_random);
  out.u64(groups);
  out.u64(multis);
  for (const std::uint8_t byte : body) out.u8(byte);
  out.end_chunk();
  return out.finish();
}

/// `values` as Writer::f64 lays them out: little-endian IEEE-754 bits.
std::vector<std::uint8_t> f64_bytes(std::initializer_list<double> values) {
  std::vector<std::uint8_t> bytes;
  for (const double value : values) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  return bytes;
}

tvla::CampaignMoments decode_moments(std::vector<std::uint8_t> bytes) {
  serialize::Reader in(std::move(bytes));
  return tvla::read_moments(in);
}

TEST(DistributedCodec, MomentsDecoderRejectsHostileBlocks) {
  // Three groups need at least six bytes; one byte short is refused
  // before the block is sized, and a huge count never reaches the
  // allocator (which would throw something other than runtime_error).
  EXPECT_EQ(decode_moments(raw_moments_block(
                4, 4, 3, 0, std::vector<std::uint8_t>(6, 0)))
                .group_count(),
            3u);
  EXPECT_THROW((void)decode_moments(raw_moments_block(
                   4, 4, 3, 0, std::vector<std::uint8_t>(5, 0))),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(raw_moments_block(
                   4, 4, std::uint64_t{1} << 60, 0, {})),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(raw_moments_block(
                   4, 4, 0, std::uint64_t{1} << 60, {})),
               std::runtime_error);
  // A multi group is exactly 32 bytes.
  EXPECT_THROW((void)decode_moments(raw_moments_block(
                   4, 4, 0, 1, std::vector<std::uint8_t>(31, 0))),
               std::runtime_error);

  // A toggle count above its class total cannot come from a real shard.
  EXPECT_NO_THROW((void)decode_moments(raw_moments_block(4, 2, 1, 0, {4, 2})));
  EXPECT_THROW((void)decode_moments(raw_moments_block(4, 2, 1, 0, {5, 0})),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(raw_moments_block(4, 2, 1, 0, {0, 3})),
               std::runtime_error);

  // Multi-group state no real shard produces is refused before any merge:
  // a NaN mean would make t NaN, and |NaN| > 4.5 is false, so a leaky
  // group would report clean. The class counts come from the header, so
  // no per-group count can disagree with them.
  const auto multi_block = [](double mean_fixed, double s2_fixed,
                              double mean_random, double s2_random) {
    return raw_moments_block(
        4, 4, 0, 1, f64_bytes({mean_fixed, s2_fixed, mean_random, s2_random}));
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto valid = decode_moments(multi_block(1.5, 0.25, 2.0, 0.0));
  EXPECT_EQ(valid.multi_fixed(0).mean, 1.5);
  EXPECT_EQ(valid.multi_fixed(0).s2, 0.25);
  EXPECT_EQ(valid.multi_random(0).mean, 2.0);
  EXPECT_THROW((void)decode_moments(multi_block(nan, 0.25, 2.0, 0.0)),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(multi_block(1.5, 0.25, inf, 0.0)),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(multi_block(1.5, nan, 2.0, 0.0)),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(multi_block(1.5, 0.25, 2.0, inf)),
               std::runtime_error);
  EXPECT_THROW((void)decode_moments(multi_block(1.5, -0.25, 2.0, 0.0)),
               std::runtime_error);

  // The "MOMV" layout of the previous build (per-group counts, and third
  // and fourth centred sums) and the dense "MOMS" layout before it are
  // refused, not misread.
  serialize::Writer legacy;
  legacy.begin_chunk("MOMV");
  for (const std::uint64_t value : {4, 4, 1, 1}) legacy.u64(value);
  legacy.varint(0);
  legacy.varint(0);
  for (int side = 0; side < 2; ++side) {
    legacy.u64(4);
    for (const double sum : {1.5, 0.25, 0.0, 0.0}) legacy.f64(sum);
  }
  legacy.end_chunk();
  EXPECT_THROW((void)decode_moments(legacy.finish()), std::runtime_error);
  serialize::Writer dense;
  dense.begin_chunk("MOMS");
  for (const std::uint64_t value : {4, 4, 1, 2, 2, 0}) dense.u64(value);
  dense.end_chunk();
  EXPECT_THROW((void)decode_moments(dense.finish()), std::runtime_error);
}

TEST(DistributedCodec, NetlistRoundTripPreservesDesignFingerprint) {
  const auto design = circuits::load_design("arbiter", 0.3);
  serialize::Writer out;
  netlist::write_netlist(out, design.netlist);
  const auto bytes = out.finish();

  serialize::Reader in(bytes);
  const auto back = netlist::read_netlist(in);
  EXPECT_EQ(back.gate_count(), design.netlist.gate_count());
  circuits::Design rebuilt{design.name, back, design.roles};
  EXPECT_EQ(core::design_fingerprint(rebuilt),
            core::design_fingerprint(design));
}

TEST(DistributedCodec, DesignRequestRoundTripsAndVerifiesFingerprint) {
  const auto design = circuits::load_design("des3", 0.3);
  const auto payload = server::encode_design_request(design);
  serialize::Reader in(payload);
  EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kDesign);
  const auto back = server::decode_design_request(in);
  EXPECT_EQ(back.fingerprint, core::design_fingerprint(design));
  EXPECT_EQ(back.design.name, design.name);
  EXPECT_EQ(back.design.roles, design.roles);
  EXPECT_EQ(back.design.netlist.gate_count(), design.netlist.gate_count());
}

TEST(DistributedCodec, ShardRequestRoundTripsAndRejectsEmptyRanges) {
  server::ShardRequest request;
  request.fingerprint = 0xfeedbeefcafe;
  request.config = audit_config();
  request.shard_begin = 4;
  request.shard_end = 8;
  {
    serialize::Reader in(server::encode_shard_request(request));
    EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kShard);
    const auto back = server::decode_shard_request(in);
    EXPECT_EQ(back.fingerprint, request.fingerprint);
    EXPECT_EQ(back.shard_begin, 4u);
    EXPECT_EQ(back.shard_end, 8u);
    // The canonical config travels with threads zeroed (fingerprint-stable),
    // so a worker's thread count can never perturb shard results.
    EXPECT_EQ(core::config_fingerprint(back.config),
              core::config_fingerprint(request.config));
  }
  request.shard_end = request.shard_begin;  // empty range: malformed
  serialize::Reader in(server::encode_shard_request(request));
  (void)server::decode_request_kind(in);
  EXPECT_THROW((void)server::decode_shard_request(in), std::runtime_error);
}

TEST(DistributedCodec, ShardReplyCarriesMergeableMoments) {
  const auto design = circuits::load_design("voter", 0.3);
  const auto config = audit_config();
  tvla::ShardRunner runner(design.netlist, lib(),
                           core::tvla_config_for(config, design));
  ASSERT_GE(runner.shard_count(), 2u);

  server::ShardReply reply;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    reply.shards.push_back({shard, runner.run_shard(shard)});
  }
  const auto back = server::decode_shard_reply(server::encode_shard_reply(reply));
  ASSERT_EQ(back.shards.size(), 2u);

  // Merging the decoded blocks in ascending order must finalize to the
  // same report as merging the originals - the coordinator's whole
  // bit-identity argument in miniature.
  auto direct = reply.shards[0].moments;
  direct.merge(reply.shards[1].moments);
  auto wired = back.shards[0].moments;
  wired.merge(back.shards[1].moments);
  tvla::ShardRunner finalizer(design.netlist, lib(),
                              core::tvla_config_for(config, design));
  expect_reports_bit_identical(finalizer.finalize(wired),
                               finalizer.finalize(direct));
}

TEST(DistributedCodec, ShardReplyCountBoundedByRealEntrySize) {
  // An entry is at least 52 bytes (u64 index, 12-byte MOMC chunk header,
  // four u64 counts). 64 entries announced over 64 * 16 bytes would pass a
  // 16-byte bound and reserve 64 full ShardResults before the first entry
  // failed; the 52-byte bound refuses the count itself.
  constexpr std::uint64_t kCount = 64;
  serialize::Writer out;
  out.begin_chunk("SHRS");
  out.u64(kCount);
  for (std::uint64_t i = 0; i < kCount * 16; ++i) out.u8(0);
  out.end_chunk();
  try {
    (void)server::decode_shard_reply(out.finish());
    FAIL() << "a shard reply whose count overruns its chunk was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("count 64 overruns its chunk"),
              std::string::npos)
        << error.what();
  }
}

// --- worker process behavior -------------------------------------------------

TEST(DistributedWorker, PingIdentifiesAShardWorker) {
  Fleet fleet(1);
  server::Client client(
      server::net::to_string(fleet.workers[0]->endpoint()));
  const auto reply = client.ping();
  EXPECT_EQ(reply.protocol, server::kProtocolVersion);
  EXPECT_EQ(reply.model_name, "shard-worker");
}

TEST(DistributedWorker, ShardForUninstalledDesignGetsUnknownDesignStatus) {
  Fleet fleet(1);
  const int fd = server::net::connect_endpoint(fleet.workers[0]->endpoint());
  ASSERT_GE(fd, 0);
  server::ShardRequest request;
  request.fingerprint = 0x1234;  // never installed
  request.config = audit_config();
  request.shard_begin = 0;
  request.shard_end = 1;
  server::write_frame(fd, server::encode_shard_request(request));
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(server::read_frame(fd, server::kDefaultMaxFrame, payload),
            server::FrameResult::kFrame);
  const auto response = server::decode_response(std::move(payload));
  EXPECT_EQ(response.status, server::Status::kUnknownDesign);
  ::close(fd);
}

/// One request on a raw worker connection, answered.
server::Response worker_roundtrip(int fd,
                                  const std::vector<std::uint8_t>& payload) {
  server::write_frame(fd, payload);
  std::vector<std::uint8_t> reply;
  EXPECT_EQ(server::read_frame(fd, server::kDefaultMaxFrame, reply),
            server::FrameResult::kFrame);
  return server::decode_response(std::move(reply));
}

TEST(DistributedWorker, InvalidShardConfigIsABadRequestNotACrash) {
  // A sequential design's batch count divides by cycles_per_batch: a
  // request the coordinator would never send must be refused, and the
  // worker must keep serving.
  Fleet fleet(1);
  const auto design = circuits::load_design("memctrl", 0.3);
  const int fd = server::net::connect_endpoint(fleet.workers[0]->endpoint());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(
      worker_roundtrip(fd, server::encode_design_request(design)).status,
      server::Status::kOk);
  server::ShardRequest request;
  request.fingerprint = core::design_fingerprint(design);
  request.config = audit_config();
  request.config.tvla.cycles_per_batch = 0;
  request.shard_begin = 0;
  request.shard_end = 1;
  EXPECT_EQ(worker_roundtrip(fd, server::encode_shard_request(request)).status,
            server::Status::kBadRequest);
  const auto pong = worker_roundtrip(fd, server::encode_ping_request());
  EXPECT_EQ(pong.status, server::Status::kOk);
  EXPECT_EQ(server::decode_ping_reply(pong.body).model_name, "shard-worker");
  ::close(fd);
}

TEST(DistributedWorker, ShardRequestsAreTimedAndRefusalsCounted) {
  // The worker answers through the daemon's request envelope: each shard
  // request records its service time in worker.shard_us, and a refused
  // request bumps worker.request_errors.
  Fleet fleet(1);
  const auto shard_count = [] {
    const auto snapshot = obs::Registry::global().snapshot();
    const auto* histogram = snapshot.find_histogram("worker.shard_us");
    return histogram == nullptr ? std::uint64_t{0} : histogram->count;
  };
  auto& errors = obs::Registry::global().counter("worker.request_errors");
  const std::uint64_t shards_before = shard_count();
  const std::uint64_t errors_before = errors.value();
  const auto design = circuits::load_design("des3", 0.3);
  const int fd = server::net::connect_endpoint(fleet.workers[0]->endpoint());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      worker_roundtrip(fd, server::encode_design_request(design)).status,
      server::Status::kOk);
  server::ShardRequest request;
  request.fingerprint = core::design_fingerprint(design);
  request.config = audit_config();
  request.shard_begin = 0;
  request.shard_end = 1;
  ASSERT_EQ(worker_roundtrip(fd, server::encode_shard_request(request)).status,
            server::Status::kOk);
  EXPECT_EQ(shard_count(), shards_before + 1);
  EXPECT_EQ(errors.value(), errors_before);

  server::AuditRequest audit;
  audit.design = "des3";
  audit.config = audit_config();
  const auto refused =
      worker_roundtrip(fd, server::encode_audit_request(audit));
  EXPECT_EQ(refused.status, server::Status::kBadRequest);
  EXPECT_EQ(refused.message,
            "polaris worker: request kind 'audit' not served by shard "
            "workers");
  EXPECT_EQ(errors.value(), errors_before + 1);
  request.fingerprint ^= 1;  // never installed
  EXPECT_EQ(worker_roundtrip(fd, server::encode_shard_request(request)).status,
            server::Status::kUnknownDesign);
  EXPECT_EQ(errors.value(), errors_before + 2);
  EXPECT_EQ(shard_count(), shards_before + 2);  // a refusal is timed too
  ::close(fd);
}

TEST(DistributedWorker, DistinctConfigsCompileADesignOnce) {
  // Every seed is a new config. The worker compiles the design once and
  // rebuilds its one runner from that plan, and every seed's moments still
  // match a local run.
  Fleet fleet(1);
  const auto design = circuits::load_design("des3", 0.3);
  const int fd = server::net::connect_endpoint(fleet.workers[0]->endpoint());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      worker_roundtrip(fd, server::encode_design_request(design)).status,
      server::Status::kOk);
  const auto compiles = [] {
    const auto snapshot = obs::Registry::global().snapshot();
    const auto* histogram = snapshot.find_histogram("tvla.compile_us");
    return histogram == nullptr ? std::uint64_t{0} : histogram->count;
  };
  const std::uint64_t compiles_before = compiles();
  std::vector<server::ShardRequest> requests;
  std::vector<server::ShardReply> replies;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    server::ShardRequest request;
    request.fingerprint = core::design_fingerprint(design);
    request.config = audit_config();
    request.config.seed = seed;
    request.config.tvla.seed = seed;
    request.shard_begin = 0;
    request.shard_end = 1;
    const auto response =
        worker_roundtrip(fd, server::encode_shard_request(request));
    ASSERT_EQ(response.status, server::Status::kOk);
    requests.push_back(request);
    replies.push_back(server::decode_shard_reply(response.body));
  }
  ::close(fd);
  EXPECT_EQ(compiles() - compiles_before, 1u);
  const auto encode = [](const tvla::CampaignMoments& moments) {
    serialize::Writer out;
    tvla::write_moments(out, moments);
    return out.finish();
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tvla::ShardRunner local(
        design.netlist, lib(),
        core::tvla_config_for(requests[i].config, design));
    ASSERT_EQ(replies[i].shards.size(), 1u);
    EXPECT_EQ(encode(replies[i].shards[0].moments), encode(local.run_shard(0)))
        << "seed " << requests[i].config.tvla.seed;
  }
}

// --- coordinator byte-identity -----------------------------------------------

TEST(DistributedAudit, BitIdenticalToSingleHostAtEveryWorkerCount) {
  const auto designs = suite_designs();
  const auto config = audit_config();
  const auto expected = core::audit_designs(designs, lib(), config);

  struct Leg {
    std::size_t workers;
    std::size_t threads;  // per worker
  };
  for (const Leg leg :
       {Leg{0, 1}, Leg{1, 1}, Leg{2, 1}, Leg{4, 1}, Leg{2, 2}}) {
    SCOPED_TRACE(std::to_string(leg.workers) + " workers of " +
                 std::to_string(leg.threads) + " threads");
    Fleet fleet(leg.workers, leg.threads);
    server::WorkerPoolOptions options;
    options.workers = fleet.endpoints;
    options.local_threads = 2;
    server::WorkerPool pool(options);
    EXPECT_EQ(pool.worker_count(), leg.workers);
    const auto reports = pool.audit(designs, lib(), config);
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      expect_reports_bit_identical(reports[d], expected[d]);
    }
  }
}

TEST(DistributedAudit, EarlyStopBudgetReplaysCheckpointsIdentically) {
  // The budget path is where the ascending-merge contract earns its keep:
  // wherever shards ran, checkpoint evaluations must fire at exactly the
  // single-host shard-prefix counts, stop at the same prefix, and discard
  // the same tail shards.
  auto config = audit_config();
  config.tvla.traces = 2048;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 256;
  const auto designs = suite_designs();
  const auto expected = core::audit_designs(designs, lib(), config);

  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 2;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }
}

TEST(DistributedAudit, EarlyStopAndPartialsReachRemoteWork) {
  // des3 at full scale decides at its first checkpoint (`polaris_cli audit
  // --budget 1024` stops it at 1024 of 65536 traces). The stop must cancel
  // the shards still queued - the feeders lease from the same queue - and
  // the first partial must fire while the prefix lands, long before the
  // whole budget has run anywhere. The workers run in this process, so
  // the tvla.traces_run counter sees remote traces too.
  auto config = audit_config();
  config.tvla.traces = 65536;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 1024;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);
  ASSERT_TRUE(expected[0].early_stopped());

  const auto& traces_run = obs::Registry::global().counter("tvla.traces_run");
  const auto& cancelled =
      obs::Registry::global().counter("sched.shards_cancelled");
  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 1;
  server::WorkerPool pool(options);
  const std::uint64_t traces_before = traces_run.value();
  const std::uint64_t cancelled_before = cancelled.value();
  // Written by whichever thread lands a checkpoint prefix; read after
  // audit() joined its feeders.
  std::vector<std::uint64_t> traces_at_partial;
  const auto reports = pool.audit(
      designs, lib(), config, [&](const tvla::LeakageReport&, std::size_t) {
        traces_at_partial.push_back(traces_run.value() - traces_before);
      });
  const std::uint64_t traces = traces_run.value() - traces_before;

  ASSERT_EQ(reports.size(), 1u);
  expect_reports_bit_identical(reports[0], expected[0]);
  EXPECT_GT(cancelled.value() - cancelled_before, 0u);
  EXPECT_LT(traces, config.tvla.traces);
  ASSERT_FALSE(traces_at_partial.empty());
  EXPECT_LT(traces_at_partial.front(), config.tvla.traces);
}

TEST(DistributedAudit, SpaceAfterACommaKeepsEveryWorker) {
  // "--workers 'A, B'" is natural shell quoting; the second endpoint must
  // not come out as host " tcp:127.0.0.1" and silently drop its worker.
  // Long enough, with one local lane, that both feeders win chunks.
  auto config = audit_config();
  config.tvla.traces = 32768;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);

  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = server::net::to_string(fleet.workers[0]->endpoint()) +
                    ", " +
                    server::net::to_string(fleet.workers[1]->endpoint());
  options.local_threads = 1;
  server::WorkerPool pool(options);
  ASSERT_EQ(pool.worker_count(), 2u);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), 1u);
  expect_reports_bit_identical(reports[0], expected[0]);
  for (const auto& entry : pool.health()) {
    EXPECT_TRUE(entry.alive) << entry.endpoint;
    EXPECT_GT(entry.shards_done, 0u) << entry.endpoint;
  }
}

TEST(DistributedAudit, DeadEndpointFallsBackToLocalLanes) {
  // Nothing listens on the reserved port 1: the feeder fails to connect,
  // marks the worker dead, and the local lanes complete the whole campaign
  // with identical bits.
  const auto designs = suite_designs();
  const auto config = audit_config();
  const auto expected = core::audit_designs(designs, lib(), config);

  server::WorkerPoolOptions options;
  options.workers = "127.0.0.1:1";
  options.local_threads = 2;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].alive);
  EXPECT_EQ(health[0].shards_done, 0u);
  EXPECT_EQ(pool.totals().moments_in, 0u);
}

TEST(DistributedAudit, WorkerKilledMidCampaignStillByteIdentical) {
  auto config = audit_config();
  config.tvla.traces = 32768;  // long enough to straddle the kill
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);

  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 2;
  server::WorkerPool pool(options);

  std::vector<tvla::LeakageReport> reports;
  std::thread auditor(
      [&] { reports = pool.audit(designs, lib(), config); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // A hard mid-campaign loss: the worker drains its current request and
  // goes away; whatever it never acknowledged is requeued and re-run on
  // the remaining lanes.
  fleet.workers[1]->request_stop();
  fleet.workers[1]->wait();
  auditor.join();

  ASSERT_EQ(reports.size(), 1u);
  expect_reports_bit_identical(reports[0], expected[0]);
}

TEST(DistributedAudit, HealthAndTotalsTrackTheFleet) {
  const auto designs = suite_designs();
  const auto config = audit_config();

  Fleet fleet(1);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 1;
  server::WorkerPool pool(options);
  (void)pool.audit(designs, lib(), config);

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].endpoint,
            server::net::to_string(fleet.workers[0]->endpoint()));
  EXPECT_TRUE(health[0].alive);
  const auto totals = pool.totals();
  EXPECT_EQ(totals.moments_in, health[0].shards_done);
  EXPECT_EQ(totals.shards_out, fleet.workers[0]->shards_run() +
                                   totals.resends);
  if (totals.shards_out > 0) {
    EXPECT_GT(totals.bytes, 0u);
  }
}

/// A protocol-correct worker on an ephemeral loopback port that serves one
/// connection: it accepts installs and answers each shard request with
/// the real shard moments, passed through `tamper` first.
class TamperingWorker {
 public:
  using Tamper = std::function<void(server::ShardReply&)>;

  explicit TamperingWorker(Tamper tamper)
      : listen_fd_(server::net::listen_endpoint(
            server::net::parse_endpoint("tcp:127.0.0.1:0"))),
        endpoint_(server::net::bound_endpoint(
            listen_fd_, server::net::parse_endpoint("tcp:127.0.0.1:0"))),
        thread_([this, tamper = std::move(tamper)] { serve(tamper); }) {}

  ~TamperingWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept() if never reached
    thread_.join();
    ::close(listen_fd_);
  }

  TamperingWorker(const TamperingWorker&) = delete;
  TamperingWorker& operator=(const TamperingWorker&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return server::net::to_string(endpoint_);
  }

 private:
  void serve(const Tamper& tamper) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::optional<circuits::Design> installed;
    std::vector<std::uint8_t> payload;
    try {
      while (server::read_frame(fd, server::kDefaultMaxFrame, payload) ==
             server::FrameResult::kFrame) {
        serialize::Reader in(std::move(payload));
        const auto kind = server::decode_request_kind(in);
        std::vector<std::uint8_t> body;
        if (kind == server::RequestKind::kDesign) {
          installed = server::decode_design_request(in).design;
        } else {
          const auto request = server::decode_shard_request(in);
          tvla::ShardRunner runner(
              installed->netlist, lib(),
              core::tvla_config_for(request.config, *installed));
          server::ShardReply reply;
          for (std::uint64_t shard = request.shard_begin;
               shard < request.shard_end; ++shard) {
            reply.shards.push_back(
                {shard, runner.run_shard(static_cast<std::size_t>(shard))});
          }
          tamper(reply);
          body = server::encode_shard_reply(reply);
        }
        server::write_frame(fd, server::encode_response(server::Status::kOk,
                                                        "", false, body));
        payload.clear();
      }
    } catch (const std::exception&) {
      // Coordinator hung up on us mid-exchange - exactly what we expect.
    }
    ::close(fd);
  }

  int listen_fd_;
  server::net::Endpoint endpoint_;
  std::thread thread_;
};

/// Audits des3 through a TamperingWorker: the coordinator must drop the
/// worker, abandon its lease, and let the local lane finish with
/// identical bits - nothing from a bad reply is ever completed. The
/// campaign is long and the local side single-threaded so the feeder is
/// guaranteed to win chunks from the shared queue before the lane drains
/// it.
void expect_tampered_replies_rejected(TamperingWorker::Tamper tamper) {
  auto config = audit_config();
  config.tvla.traces = 32768;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);

  TamperingWorker worker(std::move(tamper));
  server::WorkerPoolOptions options;
  options.workers = worker.endpoint();
  options.local_threads = 1;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].alive);  // dropped after the bad reply
  EXPECT_EQ(health[0].shards_done, 0u);
  EXPECT_GT(pool.totals().resends, 0u);
}

TEST(DistributedAudit, DuplicateShardIndexInReplyIsRejectedNotMerged) {
  // The right count but one in-range index repeated. Each entry must be
  // exactly begin + i: a duplicate would land one shard twice and leave
  // another unanswered.
  expect_tampered_replies_rejected([](server::ShardReply& reply) {
    for (auto& result : reply.shards) result.shard = reply.shards[0].shard;
  });
}

TEST(DistributedAudit, MomentsOfTheWrongShapeAreRejectedNotMerged) {
  // Every block loses its last single group. The merge indexes a block by
  // the campaign's group count, so a short block would be read out of
  // bounds.
  expect_tampered_replies_rejected([](server::ShardReply& reply) {
    for (auto& result : reply.shards) {
      const auto& full = result.moments;
      const std::size_t groups = full.group_count() - 1;
      tvla::CampaignMoments shorter(groups, full.multi_group_count());
      shorter.add_lane_counts(full.n_fixed(), full.n_random());
      for (std::size_t g = 0; g < groups; ++g) {
        shorter.add_single_ones(g, full.single_ones_fixed(g),
                                full.single_ones_random(g));
      }
      for (std::size_t i = 0; i < full.multi_group_count(); ++i) {
        shorter.set_multi(i, full.multi_fixed(i), full.multi_random(i));
      }
      result.moments = std::move(shorter);
    }
  });
}

TEST(DistributedAudit, InstallsOutliveAnAuditAndRecoverAfterAWorkerRestart) {
  // Long enough, with one local lane, that the feeder wins chunks in
  // every audit (as in the tampering tests above).
  auto config = audit_config();
  config.tvla.traces = 32768;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);
  const auto& installs = obs::Registry::global().counter("net.installs");

  Fleet fleet(1);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 1;
  server::WorkerPool pool(options);
  const auto installs_sent_by_an_audit = [&] {
    const std::uint64_t before = installs.value();
    const auto reports = pool.audit(designs, lib(), config);
    EXPECT_EQ(reports.size(), expected.size());
    for (std::size_t d = 0; d < std::min(reports.size(), expected.size());
         ++d) {
      expect_reports_bit_identical(reports[d], expected[d]);
    }
    return installs.value() - before;
  };

  EXPECT_EQ(installs_sent_by_an_audit(), 1u);
  EXPECT_EQ(installs_sent_by_an_audit(), 0u);  // the worker still holds it

  // A new worker on the same port holds no designs: the first shard
  // request answers kUnknownDesign, the feeder abandons the lease and
  // installs again, and the worker keeps serving.
  const auto endpoint = fleet.workers[0]->endpoint();
  fleet.workers[0]->request_stop();
  fleet.workers[0]->wait();
  server::WorkerOptions restart;
  restart.listen = server::net::to_string(endpoint);
  restart.threads = 1;
  fleet.workers[0] = std::make_unique<server::Worker>(restart);
  fleet.workers[0]->start();
  const std::uint64_t resends_before = pool.totals().resends;
  EXPECT_GE(installs_sent_by_an_audit(), 1u);
  EXPECT_GT(pool.totals().resends, resends_before);
  EXPECT_TRUE(pool.health()[0].alive);
  EXPECT_GT(fleet.workers[0]->shards_run(), 0u);
}

}  // namespace
