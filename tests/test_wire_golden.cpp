// Byte-level pins for every wire and bundle format, plus a seeded mutation
// sweep over the same corpus.
//
// Each hand-built instance (no TVLA, no training pipeline: the file pins
// formats, not results) must encode to exactly the bytes recorded in
// tests/golden/wire_formats.csv, and decoding then re-encoding those bytes
// must be the identity. The committed tests/golden/bundle_v1.plb must load
// and re-save byte-identically; it was written by
//
//   polaris_cli train --out bundle_v1.plb --iterations 2 --traces 512
//     --rounds 4 --mask-size 8 --max-designs 2 --theta-r 0.2 --locality 2
//
// Regenerate the CSV (only when a format changes on purpose) with
//
//   POLARIS_UPDATE_GOLDEN=1 ./test_wire_golden
//
// The mutation sweep flips bits, truncates and extends chunks, splices
// messages and rewrites count and length fields, re-seals the CRC trailer
// so the decoder sees the damaged bytes, and runs the matching decoder:
// each outcome must be a decoded value or a std::exception other than
// std::bad_alloc and std::length_error (which would mean a hostile count
// reached the allocator).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/config.hpp"
#include "core/polaris.hpp"
#include "ml/model.hpp"
#include "netlist/netlist_io.hpp"
#include "serialize/archive.hpp"
#include "serialize/model_io.hpp"
#include "server/protocol.hpp"
#include "tvla/moments_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;
using Bytes = std::vector<std::uint8_t>;

const std::string kGoldenCsv =
    std::string(POLARIS_GOLDEN_DIR) + "/wire_formats.csv";
const std::string kGoldenBundle =
    std::string(POLARIS_GOLDEN_DIR) + "/bundle_v1.plb";

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid());
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- hand-built instances ---------------------------------------------------

/// One archive holding `tag` around whatever `write` emits: how the bundle
/// carries a config, a model, rules or data, and how this file carries a
/// bare tree or ensemble.
Bytes in_chunk(const char* tag,
               const std::function<void(serialize::Writer&)>& write) {
  serialize::Writer out;
  out.begin_chunk(tag);
  write(out);
  out.end_chunk();
  return out.finish();
}

/// Enters `tag`, runs `read`, leaves the chunk.
template <class Read>
auto from_chunk(const Bytes& bytes, const char* tag, Read read) {
  serialize::Reader in(bytes);
  in.enter_chunk(tag);
  auto value = read(in);
  in.exit_chunk();
  return value;
}

tvla::LeakageReport report(double offset) {
  return tvla::LeakageReport({1.5 + offset, -4.75, 0.0, 9.25 - offset},
                             {true, true, false, true}, 4.5);
}

core::PolarisConfig config_v1() {
  core::PolarisConfig config;
  config.mask_size = 12;
  config.locality = 3;
  config.iterations = 5;
  config.theta_r = 0.625;
  config.model = core::ModelKind::kDecisionTree;
  config.learning_rate = 0.125;
  config.model_rounds = 7;
  config.handle_imbalance = false;
  config.tvla.traces = 4096;
  config.tvla.warmup_cycles = 3;
  config.tvla.cycles_per_batch = 2;
  config.tvla.threshold = 4.5;
  config.tvla.seed = 99;
  config.tvla.threads = 2;
  config.tvla.noise_std_fj = 0.5;
  config.tvla.input_class = {tvla::InputClass::kSensitive,
                             tvla::InputClass::kFixedCommon,
                             tvla::InputClass::kRandomCommon};
  config.tvla.fixed_input = {true, false, true};
  config.tvla.fixed_input_b = {false, true, true};
  config.min_leak_for_label = 1.25;
  config.scheme = masking::Scheme::kDom;
  config.coherence_smoothing = 0.25;
  config.seed = 17;
  config.threads = 3;
  return config;
}

core::PolarisConfig config_v2() {
  core::PolarisConfig config = config_v1();
  config.model = core::ModelKind::kXgboost;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 1024;
  config.tvla.budget.margin = 0.5;
  return config;
}

ml::Dataset tiny_dataset() {
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) {
    const double a = i % 2;
    const double b = (i / 2) % 2;
    rows.push_back({a, b, 0.125 * i});
    labels.push_back((i % 2) ^ ((i / 2) % 2) ^ (i == 5 ? 1 : 0));
  }
  ml::Dataset data(std::move(rows), std::move(labels));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.set_weight(i, 1.0 + 0.0625 * static_cast<double>(i % 3));
  }
  return data;
}

Bytes fitted(const ml::ModelConfig& config) {
  ml::Model model(config);
  model.fit(tiny_dataset());
  return in_chunk("MODL", [&](serialize::Writer& out) { model.save(out); });
}

ml::Tree tiny_tree(double scale) {
  ml::Tree tree;
  tree.nodes.push_back({1, 0.5, 1, 2, 0.25 * scale, 10.0});
  tree.nodes.push_back({-1, 0.0, -1, -1, 0.125 * scale, 4.0});
  tree.nodes.push_back({-1, 0.0, -1, -1, 0.875 * scale, 6.0});
  return tree;
}

ml::TreeEnsemble tiny_ensemble() {
  ml::TreeEnsemble ensemble;
  ensemble.link = ml::TreeEnsemble::Link::kLogistic;
  ensemble.base = -0.5;
  ensemble.trees.push_back({tiny_tree(1.0), 0.75});
  ensemble.trees.push_back({tiny_tree(-2.0), 0.25});
  return ensemble;
}

xai::RuleSet tiny_rules() {
  std::vector<xai::Rule> rules(2);
  rules[0].literals = {{0, true}, {2, false}};
  rules[0].action = 1;
  rules[0].support = 9;
  rules[0].precision = 0.875;
  rules[1].literals = {{1, false}};
  rules[1].action = 0;
  rules[1].support = 4;
  rules[1].precision = 1.0;
  return xai::RuleSet(std::move(rules));
}

/// Three inputs, a multi-member masked group (gates 4-6 share group 4)
/// and two outputs.
netlist::Netlist tiny_netlist() {
  netlist::Netlist net("golden_top");
  const auto a = net.add_input("a");
  const auto b = net.add_input("b");
  const auto c = net.add_input("c");
  const auto r = net.add_rand("r0");
  const auto and_ab = net.add_cell(netlist::CellType::kAnd, {a, b}, "and_ab");
  const auto x1 = net.add_cell(netlist::CellType::kXor, {and_ab, r}, "x1");
  const auto x2 = net.add_cell(netlist::CellType::kXor, {x1, r}, "x2");
  const auto out = net.add_cell(netlist::CellType::kXor, {x2, c}, "y");
  const auto gate_of = [&](netlist::NetId id) { return net.net(id).driver; };
  for (const auto id : {and_ab, x1, x2}) {
    net.gate(gate_of(id)).group = gate_of(and_ab);
  }
  net.mark_output(out, "y");
  net.mark_output(x2, "x2_out");
  net.validate();
  return net;
}

circuits::Design tiny_design() {
  using circuits::InputRole;
  return circuits::Design{
      "golden_design", tiny_netlist(),
      {InputRole::kData, InputRole::kKey, InputRole::kControl}};
}

tvla::CampaignMoments tiny_moments(std::uint64_t shift) {
  tvla::CampaignMoments moments(3, 2);
  moments.add_lane_counts(64 + shift, 64);
  moments.add_single_ones(0, 10 + shift, 20);
  moments.add_single_ones(1, 0, 64);
  moments.add_single_ones(2, 64, 0);
  moments.set_multi(0, {1.5, 0.25}, {2.0, 0.5});
  moments.set_multi(1, {-3.0, 1.0 / 3.0}, {0.0, 0.0});
  return moments;
}

server::StatusReply status_reply(bool with_workers) {
  server::StatusReply reply;
  reply.model_name = "golden";
  reply.requests_served = 41;
  reply.connections_active = 2;
  reply.connections_total = 9;
  reply.uptime_ms = 123456;
  reply.sample_interval_ms = 200;
  reply.samples = 17;
  reply.inflight = {{1, 300, 25}, {6, 1 << 20, 7}};
  engine::CampaignProgress row;
  row.label = "audit des3";
  row.sequence = 12;
  row.shards_done = 3;
  row.shards_total = 8;
  row.queue_position = 1;
  row.age_us = 9000;
  row.stopped = true;
  reply.campaigns = {row};
  reply.recent = {{2, 0, true, 88, 1500, 40}, {1, 5, false, 12, 7, 3}};
  if (with_workers) {
    reply.workers = {{"tcp:127.0.0.1:4000", true, 2, 30, 4096, 8192, 1},
                     {"/tmp/w.sock", false, 0, 0, 0, 0, 3}};
  }
  return reply;
}

server::StatsReply stats_reply() {
  server::StatsReply reply;
  reply.model_name = "golden";
  reply.config_fingerprint = 0x1122334455667788ULL;
  reply.build_type = "Release";
  reply.simd = "avx2";
  reply.lane_words = 4;
  reply.requests_served = 5;
  reply.connections = 2;
  reply.uptime_ms = 777;
  reply.snapshot.counters = {{"cache.hits", 3}, {"server.frames_in", 11}};
  obs::HistogramSnapshot histogram;
  histogram.name = "server.audit_us";
  histogram.count = 4;
  histogram.sum = 1000;
  histogram.buckets = {{3, 1}, {40, 3}};
  reply.snapshot.histograms = {histogram};
  return reply;
}

server::MaskReply mask_reply(bool verified) {
  server::MaskReply reply;
  reply.design_name = "des3";
  reply.gate_count = 120;
  reply.masked_gate_count = 180;
  reply.selected = {3, 1, 4};
  reply.seconds = 0.015625;
  reply.verilog = "module m();\nendmodule\n";
  if (verified) {
    reply.before = report(0.0);
    reply.after = report(2.0);
  }
  return reply;
}

server::AuditReply audit_reply(bool early_stop) {
  server::AuditReply reply;
  reply.design_name = "square";
  reply.gate_count = 44;
  reply.traces = 65536;
  reply.report = report(0.5);
  if (early_stop) {
    reply.traces_used = 8192;
    reply.early_stopped = true;
  }
  return reply;
}

// --- formats: encoder + decode-then-encode ----------------------------------

struct Format {
  std::string name;
  Bytes bytes;
  /// Decodes `bytes` with the format's decoder and encodes the result again.
  std::function<Bytes(const Bytes&)> reencode;
};

Bytes reencode_request(const Bytes& bytes) {
  serialize::Reader in(bytes);
  using server::RequestKind;
  switch (server::decode_request_kind(in)) {
    case RequestKind::kPing: return server::encode_ping_request();
    case RequestKind::kShutdown: return server::encode_shutdown_request();
    case RequestKind::kStats: return server::encode_stats_request();
    case RequestKind::kStatus: return server::encode_status_request();
    case RequestKind::kAudit:
      return server::encode_audit_request(server::decode_audit_request(in));
    case RequestKind::kAuditStream:
      return server::encode_audit_stream_request(
          server::decode_audit_request(in));
    case RequestKind::kMask:
      return server::encode_mask_request(server::decode_mask_request(in));
    case RequestKind::kScore:
      return server::encode_score_request(server::decode_score_request(in));
    case RequestKind::kDesign:
      return server::encode_design_request(
          server::decode_design_request(in).design);
    case RequestKind::kShard:
      return server::encode_shard_request(server::decode_shard_request(in));
  }
  throw std::logic_error("unreachable request kind");
}

std::vector<Format> formats() {
  using namespace server;
  std::vector<Format> all;
  const auto request = [&](const std::string& name, Bytes bytes) {
    all.push_back({name, std::move(bytes), reencode_request});
  };
  request("request_ping", encode_ping_request());
  request("request_shutdown", encode_shutdown_request());
  request("request_stats", encode_stats_request());
  request("request_status", encode_status_request());
  request("request_audit", encode_audit_request({"des3", 0.5, config_v1()}));
  request("request_audit_stream",
          encode_audit_stream_request({"square", 1.0, config_v2()}));
  request("request_mask",
          encode_mask_request({"des3", 0.75, 20,
                               core::InferenceMode::kModelPlusRules, true}));
  request("request_score",
          encode_score_request({"md5", 0.25, core::InferenceMode::kRules}));
  request("request_design", encode_design_request(tiny_design()));
  request("request_shard",
          encode_shard_request({0xA5A5A5A5DEADBEEFULL, config_v2(), 3, 9}));

  const auto reply = [&](const std::string& name, Bytes bytes,
                         std::function<Bytes(const Bytes&)> reencode) {
    all.push_back({name, std::move(bytes), std::move(reencode)});
  };
  PingReply ping;
  ping.model_name = "golden";
  ping.config_fingerprint = 0x0102030405060708ULL;
  ping.requests_served = 12;
  ping.cache_hits = 5;
  ping.cache_entries = 3;
  ping.build_type = "Release";
  ping.simd = "avx2";
  ping.lane_words = 4;
  reply("reply_ping", encode_ping_reply(ping), [](const Bytes& b) {
    return encode_ping_reply(decode_ping_reply(b));
  });
  for (const bool early : {false, true}) {
    reply(early ? "reply_audit_early_stop" : "reply_audit",
          encode_audit_reply(audit_reply(early)), [](const Bytes& b) {
            return encode_audit_reply(decode_audit_reply(b));
          });
  }
  reply("reply_audit_partial",
        encode_audit_partial({4096, 65536, report(1.0)}), [](const Bytes& b) {
          return encode_audit_partial(decode_audit_partial(b));
        });
  for (const bool verified : {false, true}) {
    reply(verified ? "reply_mask_verified" : "reply_mask",
          encode_mask_reply(mask_reply(verified)), [](const Bytes& b) {
            return encode_mask_reply(decode_mask_reply(b));
          });
  }
  reply("reply_score",
        encode_score_reply({"md5", {0.0, 0.5, 1.0, 0.25}, false}),
        [](const Bytes& b) {
          return encode_score_reply(decode_score_reply(b));
        });
  reply("reply_stats", encode_stats_reply(stats_reply()), [](const Bytes& b) {
    return encode_stats_reply(decode_stats_reply(b));
  });
  for (const bool workers : {false, true}) {
    reply(workers ? "reply_status_workers" : "reply_status",
          encode_status_reply(status_reply(workers)), [](const Bytes& b) {
            return encode_status_reply(decode_status_reply(b));
          });
  }
  ShardReply shards;
  shards.shards.push_back({4, tiny_moments(0)});
  shards.shards.push_back({5, tiny_moments(64)});
  reply("reply_shard", encode_shard_reply(shards), [](const Bytes& b) {
    return encode_shard_reply(decode_shard_reply(b));
  });

  const auto reencode_response = [](const Bytes& b) {
    const Response response = decode_response(b);
    return encode_response(response.status, response.message,
                           response.cache_hit, response.body);
  };
  reply("response_ok",
        encode_response(Status::kOk, "", true, encode_ping_reply(ping)),
        reencode_response);
  reply("response_error",
        encode_response(Status::kUnknownDesign, "design not installed", false,
                        {}),
        reencode_response);

  for (const auto& [name, config] : {std::pair{"config_v1", config_v1()},
                                     std::pair{"config_v2", config_v2()}}) {
    reply(name,
          in_chunk("CONF",
                   [&](serialize::Writer& out) {
                     core::write_config(out, config);
                   }),
          [](const Bytes& b) {
            const auto decoded = from_chunk(b, "CONF", core::read_config);
            return in_chunk("CONF", [&](serialize::Writer& out) {
              core::write_config(out, decoded);
            });
          });
  }

  const auto reencode_model = [](const Bytes& b) {
    const auto model = from_chunk(b, "MODL", ml::Model::load);
    return in_chunk("MODL", [&](serialize::Writer& out) { model.save(out); });
  };
  reply("classifier_decision_tree", fitted(ml::DecisionTreeConfig{3, 2, 7}),
        reencode_model);
  reply("classifier_random_forest", fitted(ml::ForestConfig{3, 2, 2, 2, 11}),
        reencode_model);
  reply("classifier_gbdt",
        fitted(ml::GbdtConfig{3, 2, 0.25, 1.0, 0.0, 2, 13}), reencode_model);
  reply("classifier_adaboost", fitted(ml::AdaBoostConfig{3, 1, 0.5, 2, 19}),
        reencode_model);

  reply("tree",
        in_chunk("TREE",
                 [](serialize::Writer& out) {
                   serialize::write_tree(out, tiny_tree(1.0));
                 }),
        [](const Bytes& b) {
          const auto tree = from_chunk(b, "TREE", serialize::read_tree);
          return in_chunk("TREE", [&](serialize::Writer& out) {
            serialize::write_tree(out, tree);
          });
        });
  reply("ensemble",
        in_chunk("ENSM",
                 [](serialize::Writer& out) {
                   serialize::write_ensemble(out, tiny_ensemble());
                 }),
        [](const Bytes& b) {
          const auto ensemble = from_chunk(b, "ENSM", serialize::read_ensemble);
          return in_chunk("ENSM", [&](serialize::Writer& out) {
            serialize::write_ensemble(out, ensemble);
          });
        });
  reply("dataset",
        in_chunk("DATA",
                 [](serialize::Writer& out) {
                   serialize::write_dataset(out, tiny_dataset());
                 }),
        [](const Bytes& b) {
          const auto data = from_chunk(b, "DATA", serialize::read_dataset);
          return in_chunk("DATA", [&](serialize::Writer& out) {
            serialize::write_dataset(out, data);
          });
        });
  reply("ruleset",
        in_chunk("RULE",
                 [](serialize::Writer& out) {
                   serialize::write_ruleset(out, tiny_rules());
                 }),
        [](const Bytes& b) {
          const auto rules = from_chunk(b, "RULE", serialize::read_ruleset);
          return in_chunk("RULE", [&](serialize::Writer& out) {
            serialize::write_ruleset(out, rules);
          });
        });

  const auto netlist_bytes = [](const netlist::Netlist& net) {
    serialize::Writer out;
    netlist::write_netlist(out, net);
    return out.finish();
  };
  reply("netlist", netlist_bytes(tiny_netlist()), [=](const Bytes& b) {
    serialize::Reader in(b);
    return netlist_bytes(netlist::read_netlist(in));
  });
  const auto moments_bytes = [](const tvla::CampaignMoments& moments) {
    serialize::Writer out;
    tvla::write_moments(out, moments);
    return out.finish();
  };
  reply("moments_multi", moments_bytes(tiny_moments(0)), [=](const Bytes& b) {
    serialize::Reader in(b);
    return moments_bytes(tvla::read_moments(in));
  });
  return all;
}

/// Removes a file when the scope ends, on every exit path: a refused
/// mutant throws out of load_bundle and must not leave its file behind.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

/// Loads a bundle image through a file, then saves it again (with the
/// dataset exactly when the image had one) and returns the saved bytes.
Bytes resave_bundle(const Bytes& image) {
  const RemoveOnExit in{temp_path("polaris_golden_in.plb")};
  const RemoveOnExit out{temp_path("polaris_golden_out.plb")};
  write_bytes(in.path, image);
  core::BundleInfo info;
  const auto loaded = core::Polaris::load_bundle(in.path, &info);
  loaded.save_bundle(out.path, info.has_dataset);
  return read_bytes(out.path);
}

// --- golden CSV -------------------------------------------------------------

std::string to_hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * bytes.size());
  for (const std::uint8_t byte : bytes) {
    hex.push_back(digits[byte >> 4]);
    hex.push_back(digits[byte & 0xF]);
  }
  return hex;
}

struct GoldenRow {
  std::size_t length = 0;
  std::string hex;
};

std::map<std::string, GoldenRow> read_golden() {
  std::ifstream in(kGoldenCsv);
  std::map<std::string, GoldenRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto first = line.find(',');
    const auto second = line.find(',', first + 1);
    rows[line.substr(0, first)] = {
        std::stoul(line.substr(first + 1, second - first - 1)),
        line.substr(second + 1)};
  }
  return rows;
}

TEST(WireGolden, EveryFormatEncodesToItsGoldenBytes) {
  const auto all = formats();
  if (std::getenv("POLARIS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenCsv);
    out << "name,length,hex\n";
    for (const auto& format : all) {
      out << format.name << ',' << format.bytes.size() << ','
          << to_hex(format.bytes) << '\n';
    }
    GTEST_SKIP() << "rewrote " << kGoldenCsv;
  }
  const auto golden = read_golden();
  ASSERT_EQ(golden.size(), all.size())
      << kGoldenCsv << " (regenerate with POLARIS_UPDATE_GOLDEN=1)";
  for (const auto& format : all) {
    const auto row = golden.find(format.name);
    ASSERT_NE(row, golden.end()) << "no golden row for " << format.name;
    EXPECT_EQ(format.bytes.size(), row->second.length) << format.name;
    EXPECT_EQ(to_hex(format.bytes), row->second.hex) << format.name;
  }
}

TEST(WireGolden, DecodeThenEncodeIsTheIdentity) {
  for (const auto& format : formats()) {
    EXPECT_EQ(to_hex(format.reencode(format.bytes)), to_hex(format.bytes))
        << format.name;
  }
}

TEST(WireGolden, CommittedBundleLoadsAndResavesByteIdentically) {
  const Bytes image = read_bytes(kGoldenBundle);
  const auto info = core::read_bundle_info(kGoldenBundle);
  EXPECT_EQ(info.model_name, "AdaBoost");
  EXPECT_TRUE(info.has_dataset);
  EXPECT_GT(info.rule_count, 0u);
  EXPECT_EQ(resave_bundle(image), image);
}

// --- seeded mutation sweep --------------------------------------------------

constexpr std::size_t kHeader = 8;   // magic + container version
constexpr std::size_t kTrailer = 8;  // "CRC0" + crc32

struct Chunk {
  std::size_t header = 0;  // offset of the 4-byte tag
  std::size_t begin = 0;   // first payload byte
  std::size_t end = 0;     // one past the last payload byte
  int parent = -1;
};

std::uint64_t load_u64(const Bytes& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  return value;
}

void store_u64(Bytes& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

bool tag_byte(std::uint8_t byte) {
  return (byte >= 'A' && byte <= 'Z') || (byte >= '0' && byte <= '9');
}

/// The body's chunk tree: top-level chunks parsed in sequence, nested ones
/// found by scanning each payload for a plausible header (four tag bytes
/// and a length that fits). A false positive only adds a mutation target.
std::vector<Chunk> chunks_of(const Bytes& body) {
  std::vector<Chunk> chunks;
  const auto scan = [&](auto& self, std::size_t begin, std::size_t end,
                        int parent, bool sequential) -> void {
    for (std::size_t at = begin; at + 12 <= end;) {
      const bool plausible = tag_byte(body[at]) && tag_byte(body[at + 1]) &&
                             tag_byte(body[at + 2]) && tag_byte(body[at + 3]) &&
                             load_u64(body, at + 4) <= end - (at + 12);
      if (!plausible) {
        if (sequential) return;
        ++at;
        continue;
      }
      const std::size_t payload = at + 12;
      const std::size_t stop = payload + load_u64(body, at + 4);
      chunks.push_back({at, payload, stop, parent});
      self(self, payload, stop, static_cast<int>(chunks.size()) - 1, false);
      at = sequential ? stop : at + 1;
    }
  };
  scan(scan, kHeader, body.size(), -1, true);
  return chunks;
}

/// Adds `delta` to the length prefix of `index` and of every enclosing chunk.
void adjust_lengths(Bytes& body, const std::vector<Chunk>& chunks, int index,
                    std::int64_t delta) {
  for (; index >= 0; index = chunks[static_cast<std::size_t>(index)].parent) {
    const std::size_t at = chunks[static_cast<std::size_t>(index)].header + 4;
    store_u64(body, at,
              load_u64(body, at) + static_cast<std::uint64_t>(delta));
  }
}

Bytes seal(Bytes body) {
  const std::uint32_t crc = serialize::crc32(body);
  for (const char c : {'C', 'R', 'C', '0'}) {
    body.push_back(static_cast<std::uint8_t>(c));
  }
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return body;
}

Bytes body_of(const Bytes& archive) {
  return Bytes(archive.begin(), archive.end() - kTrailer);
}

/// One seeded mutation of `archive`, re-sealed. `donor` feeds the splices.
Bytes mutate(const Bytes& archive, const Bytes& donor, util::Xoshiro256& rng) {
  Bytes body = body_of(archive);
  const auto chunks = chunks_of(body);
  const auto pick = [&](std::size_t bound) {
    return bound == 0 ? 0 : static_cast<std::size_t>(rng.bounded(bound));
  };
  const std::size_t span = body.size() - kHeader;
  switch (rng.bounded(6)) {
    case 0: {  // bit flips
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips; ++i) {
        body[kHeader + pick(span)] ^= static_cast<std::uint8_t>(1u << pick(8));
      }
      break;
    }
    case 1: {  // truncation inside a chunk, lengths patched to match
      if (chunks.empty()) break;
      const int index = static_cast<int>(pick(chunks.size()));
      const Chunk& chunk = chunks[static_cast<std::size_t>(index)];
      if (chunk.end == chunk.begin) break;
      const std::size_t at = chunk.begin + pick(chunk.end - chunk.begin);
      const std::size_t cut = 1 + pick(chunk.end - at);
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(at),
                 body.begin() + static_cast<std::ptrdiff_t>(at + cut));
      adjust_lengths(body, chunks, index, -static_cast<std::int64_t>(cut));
      break;
    }
    case 2: {  // extension inside a chunk: inserted random bytes
      if (chunks.empty()) break;
      const int index = static_cast<int>(pick(chunks.size()));
      const Chunk& chunk = chunks[static_cast<std::size_t>(index)];
      const std::size_t at = chunk.begin + pick(chunk.end - chunk.begin + 1);
      const std::size_t grow = 1 + pick(16);
      Bytes extra(grow);
      for (auto& byte : extra) byte = static_cast<std::uint8_t>(rng());
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(at), extra.begin(),
                  extra.end());
      adjust_lengths(body, chunks, index, static_cast<std::int64_t>(grow));
      break;
    }
    case 3: {  // count and length fields: rewrite a small u64
      std::vector<std::size_t> candidates;
      for (std::size_t at = kHeader; at + 8 <= body.size(); ++at) {
        if (load_u64(body, at) <= (std::uint64_t{1} << 24)) {
          candidates.push_back(at);
        }
      }
      if (candidates.empty()) break;
      const std::size_t at = candidates[pick(candidates.size())];
      const std::uint64_t value = load_u64(body, at);
      const std::uint64_t rest = body.size() - at;
      const std::uint64_t choices[] = {
          0, 1, value + 1, value - 1, value * 2, rest, rest / 4, rest / 12,
          rest / 17 + 1, rest / 32 + 1, std::uint64_t{1} << 32,
          std::uint64_t{1} << 40, std::uint64_t{1} << 62,
          std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()};
      store_u64(body, at, choices[pick(std::size(choices))]);
      break;
    }
    case 4: {  // splice: this message's prefix, the donor's suffix
      const Bytes other = body_of(donor);
      const std::size_t keep = kHeader + pick(span + 1);
      const std::size_t from = kHeader + pick(other.size() - kHeader + 1);
      body.resize(keep);
      body.insert(body.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                  other.end());
      break;
    }
    default: {  // splice: a donor chunk in place of one of ours
      const Bytes other = body_of(donor);
      const auto theirs = chunks_of(other);
      if (chunks.empty() || theirs.empty()) break;
      const int index = static_cast<int>(pick(chunks.size()));
      const Chunk mine = chunks[static_cast<std::size_t>(index)];
      const Chunk& graft = theirs[pick(theirs.size())];
      const std::int64_t delta =
          static_cast<std::int64_t>(graft.end - graft.header) -
          static_cast<std::int64_t>(mine.end - mine.header);
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(mine.header),
                 body.begin() + static_cast<std::ptrdiff_t>(mine.end));
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(mine.header),
                  other.begin() + static_cast<std::ptrdiff_t>(graft.header),
                  other.begin() + static_cast<std::ptrdiff_t>(graft.end));
      adjust_lengths(body, chunks, mine.parent, delta);
      break;
    }
  }
  return seal(std::move(body));
}

/// Runs `decode` on `bytes`; fails the test unless it returns or throws a
/// std::exception that is neither bad_alloc nor length_error. Returns true
/// when the input decoded.
bool survives(const std::function<Bytes(const Bytes&)>& decode,
              const Bytes& bytes, const std::string& label) {
  try {
    (void)decode(bytes);
    return true;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << label << ": bad_alloc (a count reached the allocator)";
  } catch (const std::length_error& error) {
    ADD_FAILURE() << label << ": length_error: " << error.what();
  } catch (const std::exception&) {
    // A clean rejection.
  }
  return false;
}

constexpr int kMutationsPerFormat = 1000;
constexpr int kBundleMutations = 400;

TEST(WireMutation, SeededSweepOverEveryDecoderNeverCrashes) {
  const auto all = formats();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < all.size(); ++f) {
    util::Xoshiro256 rng(0x5EED0000u + f);
    for (int m = 0; m < kMutationsPerFormat; ++m) {
      const Bytes& donor = all[rng.bounded(all.size())].bytes;
      const Bytes mutated = mutate(all[f].bytes, donor, rng);
      const std::string label = all[f].name + " mutation " + std::to_string(m);
      (survives(all[f].reencode, mutated, label) ? decoded : rejected) += 1;
    }
  }
  // The sweep must reach past the checksum: re-sealed inputs decode often
  // enough that both outcomes occur.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireMutation, SeededSweepOverTheCommittedBundle) {
  const Bytes image = read_bytes(kGoldenBundle);
  const auto all = formats();
  util::Xoshiro256 rng(0xB0D1E5u);
  for (int m = 0; m < kBundleMutations; ++m) {
    const Bytes& donor = all[rng.bounded(all.size())].bytes;
    const Bytes mutated = mutate(image, donor, rng);
    (void)survives(resave_bundle, mutated,
                   "bundle mutation " + std::to_string(m));
  }
}

// --- spliced payloads --------------------------------------------------------

Bytes format_bytes(const std::string& name) {
  for (auto& format : formats()) {
    if (format.name == name) return std::move(format.bytes);
  }
  throw std::logic_error("no format named " + name);
}

/// Index of the top-level chunk of `body` tagged `tag`.
int top_chunk(const Bytes& body, const std::vector<Chunk>& chunks,
              std::string_view tag) {
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto* at = reinterpret_cast<const char*>(&body[chunks[i].header]);
    if (chunks[i].parent == -1 && std::string_view(at, 4) == tag) {
      return static_cast<int>(i);
    }
  }
  throw std::logic_error("no top-level " + std::string(tag) + " chunk");
}

TEST(WireGolden, ModelPayloadOfAnotherVersionIsRefused) {
  // The MODL payload opens with the kind tag, then the payload version. A
  // version this build does not know must be refused, not read as 1.
  Bytes body = body_of(format_bytes("classifier_adaboost"));
  const std::size_t version_at = chunks_of(body).front().begin + 4;  // MODL
  ASSERT_EQ(body[version_at], 1);
  body[version_at] = 2;
  const Bytes archive = seal(std::move(body));
  try {
    (void)from_chunk(archive, "MODL", ml::Model::load);
    ADD_FAILURE() << "a version-2 model payload loaded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("version 2"), std::string::npos)
        << error.what();
  }
}

TEST(WireGolden, BundleWhoseModelDisagreesWithItsConfigIsRefused) {
  // The committed bundle's config says AdaBoost; its MODL payload is
  // replaced by the decision tree row's.
  Bytes body = body_of(read_bytes(kGoldenBundle));
  const auto chunks = chunks_of(body);
  const int modl = top_chunk(body, chunks, "MODL");
  const Chunk mine = chunks[static_cast<std::size_t>(modl)];
  const Bytes tree = body_of(format_bytes("classifier_decision_tree"));
  const Chunk graft = chunks_of(tree).front();  // its only top-level chunk
  body.erase(body.begin() + static_cast<std::ptrdiff_t>(mine.begin),
             body.begin() + static_cast<std::ptrdiff_t>(mine.end));
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(mine.begin),
              tree.begin() + static_cast<std::ptrdiff_t>(graft.begin),
              tree.begin() + static_cast<std::ptrdiff_t>(graft.end));
  adjust_lengths(body, chunks, modl,
                 static_cast<std::int64_t>(graft.end - graft.begin) -
                     static_cast<std::int64_t>(mine.end - mine.begin));
  const std::string path = temp_path("polaris_golden_kind.plb");
  write_bytes(path, seal(std::move(body)));
  try {
    (void)core::Polaris::load_bundle(path);
    ADD_FAILURE() << "a DecisionTree model under an AdaBoost config loaded";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DecisionTree"), std::string::npos) << what;
    EXPECT_NE(what.find("AdaBoost"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
