// The serve daemon end to end over real Unix-domain sockets: served
// audit/mask/score responses must be bit-identical to the offline library
// path at every thread count, the result cache must replay identical
// bytes, malformed frames must be answered (not dropped) without killing
// the daemon, and a stop request must drain in-flight work cleanly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "core/result_cache.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/flight_recorder.hpp"
#include "server/server.hpp"
#include "server/worker.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "util/fileio.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

core::PolarisConfig train_config() {
  core::PolarisConfig config;
  config.mask_size = 30;
  config.iterations = 2;
  config.locality = 5;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.model_rounds = 40;
  config.seed = 3;
  return config;
}

/// The audit request config the tests reuse (thread knobs never change
/// results, so every comparison below is exact).
core::PolarisConfig audit_config() {
  core::PolarisConfig config = train_config();
  config.tvla.traces = 512;
  config.seed = 7;
  config.tvla.seed = 7;
  return config;
}

std::string unique_socket_path() {
  // Keep it short: sun_path caps out near 108 characters, and gtest's
  // TempDir can be long.
  static std::atomic<int> counter{0};
  return "/tmp/polaris_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

void expect_reports_bit_identical(const tvla::LeakageReport& a,
                                  const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g;
    EXPECT_EQ(a.measured(static_cast<netlist::GateId>(g)),
              b.measured(static_cast<netlist::GateId>(g)));
  }
  EXPECT_EQ(a.threshold(), b.threshold());
}

/// Raw connected socket for the malformed-frame tests (the Client class
/// only ever emits well-formed frames).
int raw_connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// A complete ping request frame (header + payload) as raw bytes.
std::vector<std::uint8_t> ping_frame_bytes() {
  const auto payload = server::encode_ping_request();
  std::vector<std::uint8_t> frame(server::kFrameHeaderSize + payload.size());
  std::memcpy(frame.data(), server::kFrameMagic, 4);
  for (int i = 0; i < 4; ++i) {
    frame[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(server::kProtocolVersion >> (8 * i));
  }
  const std::uint64_t length = payload.size();
  for (int i = 0; i < 8; ++i) {
    frame[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(length >> (8 * i));
  }
  std::memcpy(frame.data() + server::kFrameHeaderSize, payload.data(),
              payload.size());
  return frame;
}

/// Reads the server's response on a raw socket.
server::Response read_response(int fd) {
  std::vector<std::uint8_t> payload;
  const auto result =
      server::read_frame(fd, server::kDefaultMaxFrame, payload);
  EXPECT_EQ(result, server::FrameResult::kFrame);
  return server::decode_response(std::move(payload));
}

/// Reads the server's response on a raw socket and returns its status.
server::Status read_status(int fd) { return read_response(fd).status; }

/// One request on a raw socket, answered with the raw reply body: the
/// cache tests compare the bytes the daemon sent, not a decoded copy.
server::Response raw_roundtrip(int fd, const std::vector<std::uint8_t>& payload) {
  server::write_frame(fd, payload);
  return read_response(fd);
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto* polaris = new core::Polaris(train_config());
    std::vector<circuits::Design> training;
    {
      circuits::Design d{"sbox1", circuits::make_aes_sbox_layer(1), {}};
      d.roles.assign(d.netlist.primary_inputs().size(),
                     circuits::InputRole::kData);
      training.push_back(std::move(d));
    }
    {
      circuits::Design d{"mult6", circuits::make_multiplier(6), {}};
      d.roles.assign(d.netlist.primary_inputs().size(),
                     circuits::InputRole::kData);
      training.push_back(std::move(d));
    }
    (void)polaris->train(training, lib());
    bundle_path_ = new std::string(::testing::TempDir() + "serve_test.plb");
    polaris->save_bundle(*bundle_path_);
    polaris_ = polaris;
  }
  static void TearDownTestSuite() {
    std::remove(bundle_path_->c_str());
    delete bundle_path_;
    delete polaris_;
    bundle_path_ = nullptr;
    polaris_ = nullptr;
  }

  static std::unique_ptr<server::Server> make_server(
      std::size_t threads, std::size_t max_frame = server::kDefaultMaxFrame) {
    server::ServerOptions options;
    options.socket_path = unique_socket_path();
    options.bundle_path = *bundle_path_;
    options.threads = threads;
    options.max_frame = max_frame;
    auto daemon = std::make_unique<server::Server>(options);
    daemon->start();
    return daemon;
  }

  static core::Polaris* polaris_;
  static std::string* bundle_path_;
};

core::Polaris* ServerTest::polaris_ = nullptr;
std::string* ServerTest::bundle_path_ = nullptr;

// --- bit-identity vs the offline path ---------------------------------------

TEST_F(ServerTest, AuditIsBitIdenticalToOfflineAtEveryThreadCount) {
  const auto config = audit_config();
  const auto design = circuits::load_design("des3", 0.3);
  const auto expected = tvla::run_fixed_vs_random(
      design.netlist, lib(), core::tvla_config_for(config, design));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto daemon = make_server(threads);
    server::Client client(daemon->socket_path());
    server::AuditRequest request;
    request.design = "des3";
    request.scale = 0.3;
    request.config = config;
    const auto reply = client.audit(request);
    EXPECT_EQ(reply.design_name, "des3");
    EXPECT_EQ(reply.gate_count, design.netlist.gate_count());
    EXPECT_FALSE(reply.cache_hit);
    expect_reports_bit_identical(reply.report, expected);
    daemon->request_stop();
    daemon->wait();
  }
}

TEST_F(ServerTest, MaskMatchesOfflinePathAndCachesByteIdentically) {
  const auto design = circuits::load_design("des3", 0.3);
  const auto offline =
      polaris_->mask_design(design, lib(), 20, core::InferenceMode::kModel);
  const std::string offline_verilog = netlist::to_verilog(offline.masked);

  auto daemon = make_server(2);
  server::Client client(daemon->socket_path());
  server::MaskRequest request;
  request.design = "des3";
  request.scale = 0.3;
  request.mask_size = 20;
  const auto first = client.mask(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.selected, offline.selected);
  EXPECT_EQ(first.verilog, offline_verilog);
  EXPECT_EQ(first.masked_gate_count, offline.masked.gate_count());

  // Second identical request: served from cache, byte-identical replay
  // (including the recorded seconds), and the daemon reports the hit.
  const auto second = client.mask(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verilog, first.verilog);
  EXPECT_EQ(second.selected, first.selected);
  EXPECT_EQ(second.seconds, first.seconds);
  EXPECT_GE(daemon->stats().cache_hits, 1u);
}

TEST_F(ServerTest, ScoreMatchesOfflineScoreGates) {
  const auto design = circuits::load_design("square", 0.3);
  const auto expected =
      polaris_->score_gates(design, core::InferenceMode::kModel);

  auto daemon = make_server(2);
  server::Client client(daemon->socket_path());
  server::ScoreRequest request;
  request.design = "square";
  request.scale = 0.3;
  const auto reply = client.score(request);
  ASSERT_EQ(reply.scores.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.scores[g]),
              std::bit_cast<std::uint64_t>(expected[g]))
        << "gate " << g;
  }
}

TEST_F(ServerTest, AuditCacheHitReplaysBitIdenticalReport) {
  auto daemon = make_server(2);
  server::Client client(daemon->socket_path());
  server::AuditRequest request;
  request.design = "voter";
  request.scale = 0.3;
  request.config = audit_config();
  const auto miss = client.audit(request);
  EXPECT_FALSE(miss.cache_hit);
  const auto hit = client.audit(request);
  EXPECT_TRUE(hit.cache_hit);
  expect_reports_bit_identical(hit.report, miss.report);

  // A different seed is a different key: no false sharing.
  server::AuditRequest other = request;
  other.config.tvla.seed = 99;
  EXPECT_FALSE(client.audit(other).cache_hit);
}

// --- observability ----------------------------------------------------------

TEST_F(ServerTest, PingCarriesRuntimeIdentity) {
  auto daemon = make_server(1);
  server::Client client(daemon->socket_path());
  const auto reply = client.ping();
  const auto info = obs::runtime_info();
  EXPECT_EQ(reply.build_type, info.build_type);
  EXPECT_EQ(reply.simd, info.simd);
  EXPECT_EQ(reply.lane_words, info.lane_words);
}

TEST_F(ServerTest, StatsRoundTripTracksCacheHitsAndRequestLatency) {
  auto daemon = make_server(2);
  server::Client client(daemon->socket_path());

  const auto before = client.stats();
  EXPECT_EQ(before.protocol, server::kProtocolVersion);
  EXPECT_FALSE(before.build_type.empty());
  EXPECT_FALSE(before.simd.empty());
  EXPECT_GE(before.lane_words, 1u);

  // The registry is process-global and other tests in this binary record
  // into it, so every assertion below is on DELTAS between stats calls.
  server::AuditRequest request;
  request.design = "square";
  request.scale = 0.3;
  request.config = audit_config();
  request.config.tvla.seed = 4242;  // fresh key: the first audit must miss
  request.config.seed = 4242;
  EXPECT_FALSE(client.audit(request).cache_hit);
  const auto after_miss = client.stats();
  EXPECT_TRUE(client.audit(request).cache_hit);
  const auto after_hit = client.stats();

  EXPECT_GE(after_miss.snapshot.counter_value("cache.misses"),
            before.snapshot.counter_value("cache.misses") + 1);
  EXPECT_GE(after_hit.snapshot.counter_value("cache.hits"),
            after_miss.snapshot.counter_value("cache.hits") + 1);
  EXPECT_GT(after_hit.requests_served, before.requests_served);
  EXPECT_GE(after_hit.snapshot.counter_value("server.frames_in"),
            before.snapshot.counter_value("server.frames_in") + 4);

  // Both audits (hit and miss) landed in the daemon's request histogram.
  const auto* hist = after_hit.snapshot.find_histogram("server.audit_us");
  ASSERT_NE(hist, nullptr);
  const auto* hist_before = before.snapshot.find_histogram("server.audit_us");
  const std::uint64_t count_before =
      hist_before == nullptr ? 0 : hist_before->count;
  EXPECT_GE(hist->count, count_before + 2);
  obs::HistogramSnapshot delta = *hist;
  if (hist_before != nullptr) delta.subtract(*hist_before);
  EXPECT_GE(delta.count, 2u);
  EXPECT_GT(delta.percentile(0.95), 0.0);
}

// --- concurrency ------------------------------------------------------------

TEST_F(ServerTest, ConcurrentClientsGetCorrectAnswers) {
  // N clients hammer mixed requests at once; every response must carry the
  // same bits the offline path computes, even though all campaigns' shards
  // interleave in one scheduler queue.
  const auto config = audit_config();
  const char* kDesigns[] = {"des3", "square", "voter", "arbiter"};
  std::vector<tvla::LeakageReport> expected;
  for (const char* name : kDesigns) {
    const auto design = circuits::load_design(name, 0.25);
    expected.push_back(tvla::run_fixed_vs_random(
        design.netlist, lib(), core::tvla_config_for(config, design)));
  }

  auto daemon = make_server(4);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      try {
        server::Client client(daemon->socket_path());
        (void)client.ping();
        const std::size_t which = static_cast<std::size_t>(c) % 4;
        server::AuditRequest request;
        request.design = kDesigns[which];
        request.scale = 0.25;
        request.config = config;
        const auto reply = client.audit(request);
        if (reply.report.t_values() != expected[which].t_values()) {
          failures.fetch_add(1);
        }
        server::ScoreRequest score;
        score.design = kDesigns[which];
        score.scale = 0.25;
        if (client.score(score).scores.empty()) failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon->stats().connections, 8u);
}

// --- malformed frames -------------------------------------------------------

TEST_F(ServerTest, EveryTruncatedFramePrefixLeavesTheServerServing) {
  auto daemon = make_server(1);
  const auto frame = ping_frame_bytes();
  // The serialize truncation-sweep idiom, applied to the wire: a client
  // that dies after ANY prefix of a frame must not take the daemon down.
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const int fd = raw_connect(daemon->socket_path());
    ASSERT_GE(fd, 0) << "daemon gone after prefix of " << keep << " bytes";
    if (keep > 0) send_all(fd, frame.data(), keep);
    ::close(fd);
  }
  // The daemon must still answer a well-formed request.
  server::Client client(daemon->socket_path());
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
}

TEST_F(ServerTest, WrongMagicGetsStructuredErrorFrame) {
  auto daemon = make_server(1);
  auto frame = ping_frame_bytes();
  frame[0] = 'X';
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  send_all(fd, frame.data(), frame.size());
  EXPECT_EQ(read_status(fd), server::Status::kBadMagic);
  ::close(fd);
}

TEST_F(ServerTest, FutureProtocolVersionGetsStructuredErrorFrame) {
  auto daemon = make_server(1);
  auto frame = ping_frame_bytes();
  frame[4] = static_cast<std::uint8_t>(server::kProtocolVersion + 1);
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  send_all(fd, frame.data(), frame.size());
  EXPECT_EQ(read_status(fd), server::Status::kBadVersion);
  ::close(fd);
}

TEST_F(ServerTest, OversizedFrameRejectedBeforeAllocation) {
  // --max-frame 1024; the header claims 1 GiB. The structured rejection
  // must arrive BEFORE any payload is read or allocated.
  auto daemon = make_server(1, /*max_frame=*/1024);
  auto frame = ping_frame_bytes();
  const std::uint64_t huge = std::uint64_t{1} << 30;
  for (int i = 0; i < 8; ++i) {
    frame[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  send_all(fd, frame.data(), server::kFrameHeaderSize);  // header only
  EXPECT_EQ(read_status(fd), server::Status::kTooLarge);
  ::close(fd);
}

TEST_F(ServerTest, CorruptPayloadAnsweredAndConnectionStaysUsable) {
  auto daemon = make_server(1);
  auto frame = ping_frame_bytes();
  frame[server::kFrameHeaderSize + 5] ^= 0x40;  // flip one payload byte
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  send_all(fd, frame.data(), frame.size());
  // The framing was intact (only the archive inside is corrupt), so the
  // error is answered AND the connection keeps serving.
  EXPECT_EQ(read_status(fd), server::Status::kBadPayload);
  const auto good = ping_frame_bytes();
  send_all(fd, good.data(), good.size());
  EXPECT_EQ(read_status(fd), server::Status::kOk);
  ::close(fd);
}

TEST_F(ServerTest, BadRequestsGetBadRequestStatus) {
  auto daemon = make_server(1);
  server::Client client(daemon->socket_path());
  server::AuditRequest request;
  request.design = "no_such_design";
  request.config = audit_config();
  try {
    (void)client.audit(request);
    FAIL() << "unknown design accepted";
  } catch (const server::ServerError& error) {
    EXPECT_EQ(error.status, server::Status::kBadRequest);
    EXPECT_NE(std::string(error.what()).find("no_such_design"),
              std::string::npos);
  }
  // The connection survives the rejected request.
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);

  // A scale outside (0, 1] is refused before any key is computed or design
  // built: no cache lookup, no build, and the connection keeps serving.
  auto& built = obs::Registry::global().counter("server.designs_built");
  const std::uint64_t built_before = built.value();
  const std::uint64_t misses_before = daemon->stats().cache_misses;
  request.design = "des3";
  for (const double scale : {std::nan(""), 0.0, -1.0,
                             std::numeric_limits<double>::infinity(), 2.0}) {
    request.scale = scale;
    try {
      (void)client.audit(request);
      ADD_FAILURE() << "scale " << scale << " accepted";
    } catch (const server::ServerError& error) {
      EXPECT_EQ(error.status, server::Status::kBadRequest) << scale;
      EXPECT_NE(std::string(error.what()).find("scale"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(client.ping().protocol, server::kProtocolVersion) << scale;
  }
  EXPECT_EQ(daemon->stats().cache_misses, misses_before);
  EXPECT_EQ(built.value(), built_before);
}

TEST_F(ServerTest, CacheHitsBuildNoDesignAndEachMissBuildsOne) {
  // The registry is process-global; only this test's daemon serves while
  // it runs, so the counter's deltas are this daemon's builds.
  auto& built = obs::Registry::global().counter("server.designs_built");
  auto daemon = make_server(2);
  server::Client client(daemon->socket_path());
  server::AuditRequest audit;
  audit.design = "square";
  audit.scale = 0.3;
  audit.config = audit_config();
  server::MaskRequest mask;
  mask.design = "square";
  mask.scale = 0.3;
  mask.mask_size = 10;
  server::ScoreRequest score;
  score.design = "square";
  score.scale = 0.3;

  std::uint64_t before = built.value();
  EXPECT_FALSE(client.audit(audit).cache_hit);
  EXPECT_EQ(built.value(), before + 1);
  EXPECT_FALSE(client.mask(mask).cache_hit);
  EXPECT_EQ(built.value(), before + 2);
  EXPECT_FALSE(client.score(score).cache_hit);
  EXPECT_EQ(built.value(), before + 3);

  before = built.value();
  EXPECT_TRUE(client.audit(audit).cache_hit);
  EXPECT_TRUE(client.audit_stream(audit, {}).cache_hit);
  EXPECT_TRUE(client.mask(mask).cache_hit);
  EXPECT_TRUE(client.score(score).cache_hit);
  EXPECT_EQ(built.value(), before);
}

TEST_F(ServerTest, VerilogDesignsAreKeyedByFileContent) {
  const std::string path = ::testing::TempDir() + "polaris_served_" +
                           std::to_string(::getpid()) + ".v";
  const std::string first = netlist::to_verilog(circuits::make_multiplier(4));
  const std::string second = netlist::to_verilog(circuits::make_adder(6));
  const auto config = audit_config();
  server::AuditRequest audit;
  audit.design = path;
  audit.config = config;
  server::MaskRequest mask;
  mask.design = path;
  mask.mask_size = 8;

  auto daemon = make_server(2);
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  // Miss, hit, edit the file in place (a miss computed from the new
  // bytes), then restore it (a hit on the first entry).
  const auto sequence = [&](const std::vector<std::uint8_t>& payload,
                            const auto& expect_offline) {
    util::write_file_atomic(path, first);
    const auto miss = raw_roundtrip(fd, payload);
    ASSERT_EQ(miss.status, server::Status::kOk) << miss.message;
    EXPECT_FALSE(miss.cache_hit);
    const auto hit = raw_roundtrip(fd, payload);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.body, miss.body);

    util::write_file_atomic(path, second);
    const auto edited = raw_roundtrip(fd, payload);
    ASSERT_EQ(edited.status, server::Status::kOk) << edited.message;
    EXPECT_FALSE(edited.cache_hit);
    EXPECT_NE(edited.body, miss.body);
    expect_offline(edited.body, circuits::load_design(path));

    util::write_file_atomic(path, first);
    const auto restored = raw_roundtrip(fd, payload);
    EXPECT_TRUE(restored.cache_hit);
    EXPECT_EQ(restored.body, miss.body);
  };
  sequence(server::encode_audit_request(audit),
           [&](const std::vector<std::uint8_t>& body,
               const circuits::Design& design) {
             const auto offline =
                 core::audit_designs({&design, 1}, lib(), config);
             expect_reports_bit_identical(
                 server::decode_audit_reply(body).report, offline[0]);
           });
  sequence(server::encode_mask_request(mask),
           [&](const std::vector<std::uint8_t>& body,
               const circuits::Design& design) {
             const auto offline = polaris_->mask_design(
                 design, lib(), 8, core::InferenceMode::kModel);
             const auto reply = server::decode_mask_reply(body);
             EXPECT_EQ(reply.selected, offline.selected);
             EXPECT_EQ(reply.verilog, netlist::to_verilog(offline.masked));
           });
  ::close(fd);
  std::remove(path.c_str());
}

// --- shutdown ---------------------------------------------------------------

TEST_F(ServerTest, StopMidRequestDeliversTheInFlightResponse) {
  auto daemon = make_server(2);
  const auto socket_path = daemon->socket_path();

  std::atomic<bool> audit_ok{false};
  std::thread in_flight([&] {
    try {
      server::Client client(socket_path);
      server::AuditRequest request;
      request.design = "des3";
      request.scale = 1.0;
      request.config = audit_config();
      request.config.tvla.traces = 32768;  // long enough to straddle the stop
      request.config.tvla.seed = 11;
      const auto reply = client.audit(request);
      audit_ok.store(reply.report.group_count() > 0);
    } catch (const std::exception&) {
      audit_ok.store(false);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  daemon->request_stop();
  daemon->wait();
  in_flight.join();

  // Graceful drain: the in-flight request completed and its response was
  // delivered; the socket file is gone afterwards.
  EXPECT_TRUE(audit_ok.load());
  struct stat status_buffer{};
  EXPECT_NE(::stat(socket_path.c_str(), &status_buffer), 0);
}

TEST_F(ServerTest, StalledMidFramePeerCannotBlockShutdown) {
  auto daemon = make_server(1);
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  const auto frame = ping_frame_bytes();
  send_all(fd, frame.data(), 8);  // half a header, then go silent
  // Give the handler time to enter the mid-frame read before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  daemon->request_stop();
  daemon->wait();  // must return despite the peer never finishing its frame
  ::close(fd);
}

TEST_F(ServerTest, ClientVanishingBeforeItsResponseDoesNotKillTheDaemon) {
  auto daemon = make_server(1);
  const int fd = raw_connect(daemon->socket_path());
  ASSERT_GE(fd, 0);
  const auto frame = ping_frame_bytes();
  send_all(fd, frame.data(), frame.size());
  ::close(fd);  // peer gone before the response write - must not SIGPIPE
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server::Client client(daemon->socket_path());
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
}

TEST_F(ServerTest, SecondDaemonOnLiveSocketIsRejected) {
  auto daemon = make_server(1);
  server::ServerOptions options;
  options.socket_path = daemon->socket_path();
  options.bundle_path = *bundle_path_;
  EXPECT_THROW(server::Server{options}, std::runtime_error);
  // The incumbent daemon is unharmed by the rejected newcomer.
  server::Client client(daemon->socket_path());
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
}

TEST_F(ServerTest, ClientShutdownVerbDrainsTheDaemon) {
  auto daemon = make_server(1);
  const auto socket_path = daemon->socket_path();
  {
    server::Client client(socket_path);
    client.shutdown_server();
  }
  daemon->wait();
  const auto stats = daemon->stats();
  EXPECT_GE(stats.requests_served, 1u);
  EXPECT_LT(raw_connect(socket_path), 0);  // nothing listens anymore
}

// --- protocol codecs (no sockets) -------------------------------------------

TEST(ServeProtocol, RequestsRoundTrip) {
  server::AuditRequest audit;
  audit.design = "des3";
  audit.scale = 0.5;
  audit.config = audit_config();
  {
    serialize::Reader in(server::encode_audit_request(audit));
    EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kAudit);
    const auto back = server::decode_audit_request(in);
    EXPECT_EQ(back.design, audit.design);
    EXPECT_EQ(back.scale, audit.scale);
    EXPECT_EQ(core::config_fingerprint(back.config),
              core::config_fingerprint(audit.config));
  }
  server::MaskRequest mask;
  mask.design = "square";
  mask.mask_size = 44;
  mask.mode = core::InferenceMode::kModelPlusRules;
  mask.verify = true;
  {
    serialize::Reader in(server::encode_mask_request(mask));
    EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kMask);
    const auto back = server::decode_mask_request(in);
    EXPECT_EQ(back.design, mask.design);
    EXPECT_EQ(back.mask_size, mask.mask_size);
    EXPECT_EQ(back.mode, mask.mode);
    EXPECT_TRUE(back.verify);
  }
}

TEST(ServeProtocol, ResponsesRoundTripIncludingReports) {
  server::AuditReply reply;
  reply.design_name = "d";
  reply.gate_count = 12;
  reply.traces = 512;
  reply.report = tvla::LeakageReport({5.5, -0.25, 0.0}, {true, true, false},
                                     4.5);
  const auto body = server::encode_audit_reply(reply);
  const auto payload =
      server::encode_response(server::Status::kOk, "", true, body);
  auto response = server::decode_response(payload);
  EXPECT_EQ(response.status, server::Status::kOk);
  EXPECT_TRUE(response.cache_hit);
  const auto back = server::decode_audit_reply(response.body);
  EXPECT_EQ(back.design_name, "d");
  expect_reports_bit_identical(back.report, reply.report);
}

TEST(ServeProtocol, StatsReplyRoundTripsRegistrySnapshot) {
  server::StatsReply reply;
  reply.model_name = "adaboost";
  reply.config_fingerprint = 0x1234abcd;
  reply.build_type = "release";
  reply.simd = "avx2";
  reply.lane_words = 4;
  reply.requests_served = 7;
  reply.connections = 3;
  obs::Registry registry;  // local: the wire format, not the global state
  registry.counter("cache.hits").add(41);
  auto& histogram = registry.histogram("server.audit_us");
  histogram.record(5);
  histogram.record(100);
  histogram.record(100000);
  reply.snapshot = registry.snapshot();

  const auto back =
      server::decode_stats_reply(server::encode_stats_reply(reply));
  EXPECT_EQ(back.protocol, server::kProtocolVersion);
  EXPECT_EQ(back.model_name, "adaboost");
  EXPECT_EQ(back.config_fingerprint, 0x1234abcdu);
  EXPECT_EQ(back.build_type, "release");
  EXPECT_EQ(back.simd, "avx2");
  EXPECT_EQ(back.lane_words, 4u);
  EXPECT_EQ(back.requests_served, 7u);
  EXPECT_EQ(back.connections, 3u);
  EXPECT_EQ(back.snapshot.counter_value("cache.hits"), 41u);
  const auto* hist = back.snapshot.find_histogram("server.audit_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 100105u);
  EXPECT_EQ(hist->buckets, reply.snapshot.histograms[0].buckets);
}

TEST(ResultCache, BytesTrackResidentBodiesAcrossRefreshAndEviction) {
  core::ResultCache cache(2);
  const auto body_of = [](std::size_t size) {
    return std::make_shared<const std::vector<std::uint8_t>>(size, 0xAB);
  };
  cache.put(1, body_of(100));
  EXPECT_EQ(cache.bytes(), 100u);

  // Refresh with a different size replaces, not accumulates.
  cache.put(1, body_of(60));
  EXPECT_EQ(cache.bytes(), 60u);
  EXPECT_EQ(cache.size(), 1u);

  cache.put(2, body_of(40));
  EXPECT_EQ(cache.bytes(), 100u);

  // Capacity 2: inserting a third evicts the oldest (key 1, 60 bytes).
  cache.put(3, body_of(7));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 47u);
  EXPECT_EQ(cache.get(1), nullptr);
  ASSERT_NE(cache.get(2), nullptr);
  ASSERT_NE(cache.get(3), nullptr);
}

TEST(ServeProtocol, AuditReplyRoundTripsEarlyStopFields) {
  server::AuditReply reply;
  reply.design_name = "d";
  reply.traces = 8192;
  reply.report = tvla::LeakageReport({6.0}, {true}, 4.5);
  reply.traces_used = 1024;
  reply.early_stopped = true;
  const auto back = server::decode_audit_reply(server::encode_audit_reply(reply));
  EXPECT_EQ(back.traces_used, 1024u);
  EXPECT_TRUE(back.early_stopped);
  EXPECT_EQ(back.report.traces_used(), 1024u);
  EXPECT_TRUE(back.report.early_stopped());

  // Fixed-budget replies (traces_used 0) keep the pre-budget byte layout.
  server::AuditReply fixed = reply;
  fixed.traces_used = 0;
  fixed.early_stopped = false;
  const auto fixed_bytes = server::encode_audit_reply(fixed);
  EXPECT_LT(fixed_bytes.size(), server::encode_audit_reply(reply).size());
  const auto fixed_back = server::decode_audit_reply(fixed_bytes);
  EXPECT_EQ(fixed_back.traces_used, 0u);
  EXPECT_FALSE(fixed_back.early_stopped);
}

TEST(ServeProtocol, AuditPartialRoundTripsAndIsDistinguishable) {
  server::AuditPartial partial;
  partial.traces_done = 2048;
  partial.traces_total = 8192;
  partial.report = tvla::LeakageReport({3.25, -1.5}, {true, true}, 4.5);
  const auto body = server::encode_audit_partial(partial);
  EXPECT_TRUE(server::is_audit_partial(body));

  const auto back = server::decode_audit_partial(body);
  EXPECT_EQ(back.traces_done, 2048u);
  EXPECT_EQ(back.traces_total, 8192u);
  expect_reports_bit_identical(back.report, partial.report);

  // A final AUDS body must NOT look like a checkpoint frame.
  server::AuditReply reply;
  reply.report = tvla::LeakageReport({1.0}, {true}, 4.5);
  EXPECT_FALSE(server::is_audit_partial(server::encode_audit_reply(reply)));
}

TEST_F(ServerTest, StreamingAuditMatchesNonStreamingByteForByte) {
  auto config = audit_config();
  config.tvla.traces = 2048;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 256;

  auto daemon = make_server(2);
  server::AuditRequest request;
  request.design = "des3";
  request.scale = 0.3;
  request.config = config;

  std::vector<server::AuditPartial> partials;
  server::Client streaming(daemon->socket_path());
  const auto streamed = streaming.audit_stream(
      request,
      [&](const server::AuditPartial& partial) { partials.push_back(partial); });
  EXPECT_FALSE(streamed.cache_hit);
  for (std::size_t i = 1; i < partials.size(); ++i) {
    EXPECT_LT(partials[i - 1].traces_done, partials[i].traces_done);
  }
  for (const auto& partial : partials) {
    EXPECT_EQ(partial.traces_total, 2048u);
    EXPECT_LE(partial.traces_done, 2048u);
  }

  // The same request through the plain verb: a cache hit (streaming and
  // non-streaming share one key) and an identical reply.
  server::Client plain(daemon->socket_path());
  const auto direct = plain.audit(request);
  EXPECT_TRUE(direct.cache_hit);
  EXPECT_EQ(direct.traces_used, streamed.traces_used);
  EXPECT_EQ(direct.early_stopped, streamed.early_stopped);
  expect_reports_bit_identical(direct.report, streamed.report);

  // A second streaming request replays the cache: zero partial frames.
  std::size_t replayed_partials = 0;
  server::Client cached(daemon->socket_path());
  const auto replay = cached.audit_stream(
      request, [&](const server::AuditPartial&) { ++replayed_partials; });
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(replayed_partials, 0u);
  expect_reports_bit_identical(replay.report, streamed.report);

  daemon->request_stop();
  daemon->wait();
}

TEST_F(ServerTest, StreamingAuditMatchesOfflineEarlyStop) {
  auto config = audit_config();
  config.tvla.traces = 2048;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 256;
  const auto design = circuits::load_design("des3", 0.3);
  const auto offline = tvla::run_fixed_vs_random(
      design.netlist, lib(), core::tvla_config_for(config, design));

  auto daemon = make_server(4);
  server::Client client(daemon->socket_path());
  server::AuditRequest request;
  request.design = "des3";
  request.scale = 0.3;
  request.config = config;
  const auto reply =
      client.audit_stream(request, [](const server::AuditPartial&) {});
  EXPECT_EQ(reply.traces_used, offline.traces_used());
  EXPECT_EQ(reply.early_stopped, offline.early_stopped());
  expect_reports_bit_identical(reply.report, offline);

  daemon->request_stop();
  daemon->wait();
}

// --- live-operations status: codec, recorder, end-to-end --------------------

TEST(ServeProtocol, StatusRequestRoundTripsAndKindsHaveNames) {
  serialize::Reader in(server::encode_status_request());
  EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kStatus);
  EXPECT_STREQ(server::request_kind_name(server::RequestKind::kStatus),
               "status");
  EXPECT_STREQ(server::request_kind_name(server::RequestKind::kAudit),
               "audit");
  EXPECT_STREQ(server::request_kind_name(server::RequestKind::kPing), "ping");
}

TEST(ServeProtocol, StatusReplyRoundTripsAllThreeTables) {
  server::StatusReply reply;
  reply.model_name = "adaboost";
  reply.requests_served = 42;
  reply.connections_active = 2;
  reply.connections_total = 9;
  reply.uptime_ms = 123456;
  reply.sample_interval_ms = 1000;
  reply.samples = 123;
  {
    server::InflightEntry entry;
    entry.kind = static_cast<std::uint8_t>(server::RequestKind::kAudit);
    entry.bytes = 1024;
    entry.age_us = 250000;
    reply.inflight.push_back(entry);
  }
  {
    engine::CampaignProgress row;
    row.label = "des3";
    row.sequence = 7;
    row.shards_done = 5;
    row.shards_total = 12;
    row.queue_position = 1;
    row.age_us = 99;
    row.stopped = true;
    reply.campaigns.push_back(row);
    row.label = "";  // unnamed campaigns stay representable
    row.stopped = false;
    reply.campaigns.push_back(row);
  }
  {
    server::FlightRecordEntry record;
    record.kind = static_cast<std::uint8_t>(server::RequestKind::kMask);
    record.status = static_cast<std::uint8_t>(server::Status::kOk);
    record.cache_hit = true;
    record.bytes = 77;
    record.duration_us = 4321;
    record.age_us = 5;
    reply.recent.push_back(record);
  }

  const auto back =
      server::decode_status_reply(server::encode_status_reply(reply));
  EXPECT_EQ(back.protocol, server::kProtocolVersion);
  EXPECT_EQ(back.model_name, "adaboost");
  EXPECT_EQ(back.requests_served, 42u);
  EXPECT_EQ(back.connections_active, 2u);
  EXPECT_EQ(back.connections_total, 9u);
  EXPECT_EQ(back.uptime_ms, 123456u);
  EXPECT_EQ(back.sample_interval_ms, 1000u);
  EXPECT_EQ(back.samples, 123u);
  ASSERT_EQ(back.inflight.size(), 1u);
  EXPECT_EQ(back.inflight[0].kind,
            static_cast<std::uint8_t>(server::RequestKind::kAudit));
  EXPECT_EQ(back.inflight[0].bytes, 1024u);
  EXPECT_EQ(back.inflight[0].age_us, 250000u);
  ASSERT_EQ(back.campaigns.size(), 2u);
  EXPECT_EQ(back.campaigns[0].label, "des3");
  EXPECT_EQ(back.campaigns[0].sequence, 7u);
  EXPECT_EQ(back.campaigns[0].shards_done, 5u);
  EXPECT_EQ(back.campaigns[0].shards_total, 12u);
  EXPECT_EQ(back.campaigns[0].queue_position, 1u);
  EXPECT_EQ(back.campaigns[0].age_us, 99u);
  EXPECT_TRUE(back.campaigns[0].stopped);
  EXPECT_EQ(back.campaigns[1].label, "");
  EXPECT_FALSE(back.campaigns[1].stopped);
  ASSERT_EQ(back.recent.size(), 1u);
  EXPECT_EQ(back.recent[0].kind,
            static_cast<std::uint8_t>(server::RequestKind::kMask));
  EXPECT_EQ(back.recent[0].status,
            static_cast<std::uint8_t>(server::Status::kOk));
  EXPECT_TRUE(back.recent[0].cache_hit);
  EXPECT_EQ(back.recent[0].bytes, 77u);
  EXPECT_EQ(back.recent[0].duration_us, 4321u);
  EXPECT_EQ(back.recent[0].age_us, 5u);
}

TEST(ServeProtocol, StatusReplyRoundTripsWorkerFleetHealth) {
  server::StatusReply reply;
  reply.model_name = "adaboost";
  {
    server::WorkerHealthEntry worker;
    worker.endpoint = "tcp:10.0.0.7:9000";
    worker.alive = true;
    worker.inflight = 3;
    worker.shards_done = 128;
    worker.bytes_out = 4096;
    worker.bytes_in = 1 << 20;
    worker.resends = 0;
    reply.workers.push_back(worker);
    worker.endpoint = "tcp:10.0.0.8:9000";
    worker.alive = false;
    worker.resends = 12;
    reply.workers.push_back(worker);
  }
  const auto back =
      server::decode_status_reply(server::encode_status_reply(reply));
  ASSERT_EQ(back.workers.size(), 2u);
  EXPECT_EQ(back.workers[0].endpoint, "tcp:10.0.0.7:9000");
  EXPECT_TRUE(back.workers[0].alive);
  EXPECT_EQ(back.workers[0].inflight, 3u);
  EXPECT_EQ(back.workers[0].shards_done, 128u);
  EXPECT_EQ(back.workers[0].bytes_out, 4096u);
  EXPECT_EQ(back.workers[0].bytes_in, std::uint64_t{1} << 20);
  EXPECT_FALSE(back.workers[1].alive);
  EXPECT_EQ(back.workers[1].resends, 12u);

  // A workerless daemon's reply omits the fleet chunk entirely: its status
  // body stays byte-identical to the pre-distributed wire format.
  server::StatusReply plain;
  plain.model_name = "adaboost";
  const auto plain_body = server::encode_status_reply(plain);
  EXPECT_LT(plain_body.size(), server::encode_status_reply(reply).size());
  EXPECT_TRUE(server::decode_status_reply(plain_body).workers.empty());
}

TEST(ServeProtocol, EveryTruncatedStatusReplyPrefixFailsCleanly) {
  // The serialize truncation-sweep idiom, applied to the status body: a
  // torn or hostile reply must throw from the decoder, never crash or
  // hand back a half-parsed table.
  server::StatusReply reply;
  reply.model_name = "m";
  server::InflightEntry entry;
  entry.kind = 1;
  entry.bytes = 10;
  reply.inflight.push_back(entry);
  engine::CampaignProgress row;
  row.label = "c";
  row.shards_total = 4;
  reply.campaigns.push_back(row);
  server::FlightRecordEntry record;
  record.kind = 2;
  reply.recent.push_back(record);
  const auto body = server::encode_status_reply(reply);

  for (std::size_t keep = 0; keep < body.size(); ++keep) {
    const std::span<const std::uint8_t> prefix(body.data(), keep);
    EXPECT_THROW((void)server::decode_status_reply(prefix),
                 std::runtime_error)
        << "prefix of " << keep << " bytes parsed";
  }
  // The untruncated body still decodes: the sweep failed for the right
  // reason.
  EXPECT_EQ(server::decode_status_reply(body).model_name, "m");
}

TEST(FlightRecorder, RingEvictsOldestAndListsNewestFirst) {
  server::FlightRecorder recorder(3);
  EXPECT_EQ(recorder.capacity(), 3u);
  EXPECT_TRUE(recorder.recent().empty());
  for (std::uint8_t i = 0; i < 5; ++i) {
    server::FlightRecorder::Record record;
    record.kind = i;
    record.bytes = 10u * i;
    recorder.record(record, "ping");
  }
  EXPECT_EQ(recorder.total_recorded(), 5u);
  const auto recent = recorder.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].kind, 4);  // newest first
  EXPECT_EQ(recent[1].kind, 3);
  EXPECT_EQ(recent[2].kind, 2);
  EXPECT_EQ(recent[0].bytes, 40u);
}

TEST(FlightRecorder, SlowThresholdCountsOnlySlowRequests) {
  auto& slow = obs::Registry::global().counter("server.slow_requests");
  const std::uint64_t before = slow.value();
  server::FlightRecorder recorder(8, /*slow_threshold_us=*/1000);
  server::FlightRecorder::Record record;
  record.kind = 1;
  record.duration_us = 999;  // under threshold: silent
  recorder.record(record, "audit");
  EXPECT_EQ(slow.value(), before);
  record.duration_us = 1000;  // at threshold: logged + counted
  recorder.record(record, "audit");
  EXPECT_EQ(slow.value(), before + 1);
  // Threshold 0 disables the slow path entirely.
  server::FlightRecorder quiet(8, 0);
  record.duration_us = 1u << 30;
  quiet.record(record, "audit");
  EXPECT_EQ(slow.value(), before + 1);
}

TEST_F(ServerTest, StatusReportsInflightCampaignsAndFlightRecorder) {
  auto daemon = make_server(1);  // serial scheduler: the audit takes a while

  server::Client poll(daemon->socket_path());
  const std::uint64_t hits_before =
      poll.stats().snapshot.counter_value("cache.hits");

  core::PolarisConfig config = audit_config();
  config.tvla.traces = 4096;  // long enough to observe mid-flight
  server::AuditRequest request;
  request.design = "des3";
  request.scale = 0.3;
  request.config = config;

  std::thread audit_thread([&daemon, &request] {
    server::Client client(daemon->socket_path());
    const auto reply = client.audit(request);
    EXPECT_FALSE(reply.cache_hit);
  });

  // Poll from a second connection: the audit must show up both as an
  // in-flight request and as a named campaign with monotonic shard
  // progress.
  bool saw_inflight_audit = false;
  bool saw_campaign = false;
  std::uint64_t last_done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!(saw_inflight_audit && saw_campaign) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto status = poll.status();
    EXPECT_EQ(status.protocol, server::kProtocolVersion);
    EXPECT_GE(status.connections_active, 1u);
    for (const auto& entry : status.inflight) {
      if (entry.kind ==
          static_cast<std::uint8_t>(server::RequestKind::kAudit)) {
        saw_inflight_audit = true;
        EXPECT_GT(entry.bytes, 0u);
      }
    }
    for (const auto& row : status.campaigns) {
      if (row.label != "des3") continue;
      saw_campaign = true;
      EXPECT_FALSE(row.stopped);
      EXPECT_LE(row.shards_done, row.shards_total);
      EXPECT_GE(row.shards_done, last_done);  // monotonic across polls
      last_done = row.shards_done;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  audit_thread.join();
  EXPECT_TRUE(saw_inflight_audit);
  EXPECT_TRUE(saw_campaign);

  // Identical second request: a cache hit, recorded as such.
  {
    server::Client client(daemon->socket_path());
    EXPECT_TRUE(client.audit(request).cache_hit);
  }

  // The flight recorder must hold both completed audits - one miss (with
  // real compute time) and one hit - and its cache_hit flags must agree
  // with the cache.hits counter delta over the same window. The record is
  // deposited after the reply frame is written, so a client can briefly
  // outrun its own record: poll until both appear.
  bool miss_recorded = false;
  bool hit_recorded = false;
  while (!(miss_recorded && hit_recorded) &&
         std::chrono::steady_clock::now() < deadline) {
    miss_recorded = hit_recorded = false;
    for (const auto& record : poll.status().recent) {
      if (record.kind !=
          static_cast<std::uint8_t>(server::RequestKind::kAudit)) {
        continue;
      }
      EXPECT_EQ(record.status, static_cast<std::uint8_t>(server::Status::kOk));
      EXPECT_GT(record.bytes, 0u);
      if (record.cache_hit) {
        hit_recorded = true;
      } else {
        miss_recorded = true;
        EXPECT_GT(record.duration_us, 0u);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(miss_recorded);
  EXPECT_TRUE(hit_recorded);
  const std::uint64_t hits_after =
      poll.stats().snapshot.counter_value("cache.hits");
  EXPECT_EQ(hits_after - hits_before, 1u);

  // The table drains with the work: nothing in flight once the audits are
  // done and this status round-trip is the only live request.
  EXPECT_TRUE(poll.status().campaigns.empty());

  // Uptime flows through stats too (appended STTS field).
  EXPECT_GT(poll.stats().uptime_ms + 1, 0u);  // present and decodable
  daemon->request_stop();
  daemon->wait();
}

// --- TCP transport -----------------------------------------------------------

TEST_F(ServerTest, TcpEndpointServesBitIdenticalAudits) {
  server::ServerOptions options;
  options.socket_path = "tcp:127.0.0.1:0";  // ephemeral port
  options.bundle_path = *bundle_path_;
  options.threads = 2;
  auto daemon = std::make_unique<server::Server>(options);
  daemon->start();
  const std::string endpoint = server::net::to_string(daemon->endpoint());
  ASSERT_NE(endpoint.find("tcp:127.0.0.1:"), std::string::npos);
  ASSERT_NE(daemon->endpoint().port, 0);  // resolved, not the requested 0

  const auto config = audit_config();
  const auto design = circuits::load_design("des3", 0.3);
  const auto expected = tvla::run_fixed_vs_random(
      design.netlist, lib(), core::tvla_config_for(config, design));

  server::Client client(endpoint);
  server::AuditRequest request;
  request.design = "des3";
  request.scale = 0.3;
  request.config = config;
  const auto reply = client.audit(request);
  expect_reports_bit_identical(reply.report, expected);
  daemon->request_stop();
  daemon->wait();
}

/// Median wall time of 50 sequential pings on one connection.
double median_ping_ms(const server::net::Endpoint& endpoint) {
  server::Client client(server::net::to_string(endpoint));
  std::vector<double> ms;
  for (int i = 0; i < 50; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)client.ping();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 25, ms.end());
  return ms[25];
}

TEST_F(ServerTest, TcpPingRoundTripsDoNotWaitOnNagle) {
  // A frame goes out as two writes (header, then payload). Unless both
  // ends set TCP_NODELAY, the second write waits for the peer's delayed
  // ACK of the first: tens of milliseconds per frame on loopback.
  server::WorkerOptions worker_options;
  worker_options.listen = "tcp:127.0.0.1:0";
  worker_options.threads = 1;
  server::Worker worker(worker_options);
  worker.start();
  EXPECT_LT(median_ping_ms(worker.endpoint()), 10.0);
  worker.request_stop();
  worker.wait();

  server::ServerOptions options;
  options.socket_path = "tcp:127.0.0.1:0";
  options.bundle_path = *bundle_path_;
  options.threads = 1;
  server::Server daemon(options);
  daemon.start();
  EXPECT_LT(median_ping_ms(daemon.endpoint()), 10.0);
  daemon.request_stop();
  daemon.wait();
}

TEST_F(ServerTest, TcpTruncatedFramePrefixesLeaveTheServerServing) {
  server::ServerOptions options;
  options.socket_path = "tcp:127.0.0.1:0";
  options.bundle_path = *bundle_path_;
  options.threads = 1;
  auto daemon = std::make_unique<server::Server>(options);
  daemon->start();

  // The same sweep the UDS leg runs: a peer dying after ANY frame prefix
  // must not take the daemon down, on this transport too.
  const auto frame = ping_frame_bytes();
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const int fd = server::net::connect_endpoint(daemon->endpoint());
    ASSERT_GE(fd, 0) << "daemon gone after prefix of " << keep << " bytes";
    if (keep > 0) send_all(fd, frame.data(), keep);
    ::close(fd);
  }
  server::Client client(server::net::to_string(daemon->endpoint()));
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
  daemon->request_stop();
  daemon->wait();
}

TEST_F(ServerTest, TcpCorruptFramesGetStructuredErrorsAndConnectionSurvives) {
  server::ServerOptions options;
  options.socket_path = "tcp:127.0.0.1:0";
  options.bundle_path = *bundle_path_;
  options.threads = 1;
  auto daemon = std::make_unique<server::Server>(options);
  daemon->start();

  {
    auto bad_magic = ping_frame_bytes();
    bad_magic[0] = 'X';
    const int fd = server::net::connect_endpoint(daemon->endpoint());
    ASSERT_GE(fd, 0);
    send_all(fd, bad_magic.data(), bad_magic.size());
    EXPECT_EQ(read_status(fd), server::Status::kBadMagic);
    ::close(fd);
  }
  {
    // Corrupt payload, intact framing: answered AND the connection keeps
    // serving, exactly like the UDS leg.
    auto corrupt = ping_frame_bytes();
    corrupt[server::kFrameHeaderSize + 5] ^= 0x40;
    const int fd = server::net::connect_endpoint(daemon->endpoint());
    ASSERT_GE(fd, 0);
    send_all(fd, corrupt.data(), corrupt.size());
    EXPECT_EQ(read_status(fd), server::Status::kBadPayload);
    const auto good = ping_frame_bytes();
    send_all(fd, good.data(), good.size());
    EXPECT_EQ(read_status(fd), server::Status::kOk);
    ::close(fd);
  }
  daemon->request_stop();
  daemon->wait();
}

TEST(ServeNet, EndpointSpecsParseAndRoundTrip) {
  const auto tcp = server::net::parse_endpoint("tcp:localhost:9000");
  EXPECT_TRUE(tcp.tcp);
  EXPECT_EQ(tcp.host, "localhost");
  EXPECT_EQ(tcp.port, 9000);
  // The bare host:port spelling used by --workers lists.
  const auto bare = server::net::parse_endpoint("10.0.0.7:12345");
  EXPECT_TRUE(bare.tcp);
  EXPECT_EQ(bare.host, "10.0.0.7");
  EXPECT_EQ(bare.port, 12345);
  EXPECT_EQ(server::net::to_string(bare), "tcp:10.0.0.7:12345");
  // Anything else is a UDS path, including paths with colons elsewhere.
  const auto uds = server::net::parse_endpoint("/tmp/polaris.sock");
  EXPECT_FALSE(uds.tcp);
  EXPECT_EQ(uds.path, "/tmp/polaris.sock");
  EXPECT_EQ(server::net::to_string(uds), "/tmp/polaris.sock");
  EXPECT_THROW((void)server::net::parse_endpoint("tcp:host:99999"),
               std::runtime_error);
  EXPECT_THROW((void)server::net::parse_endpoint(""), std::runtime_error);
}

// --- client deadline ---------------------------------------------------------

TEST(ServeClient, TimeoutRaisesStructuredErrorAgainstASilentPeer) {
  // A listener that accepts (the kernel completes the handshake from the
  // backlog) but never reads or replies: without a deadline the client
  // would block forever; with one it must throw the structured type within
  // the configured window.
  const auto requested = server::net::parse_endpoint("tcp:127.0.0.1:0");
  const int listen_fd = server::net::listen_endpoint(requested, 1);
  ASSERT_GE(listen_fd, 0);
  const auto bound = server::net::bound_endpoint(listen_fd, requested);

  server::Client client(server::net::to_string(bound), /*timeout_ms=*/300);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.ping(), server::TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  try {
    (void)client.ping();
  } catch (const server::TimeoutError& error) {
    EXPECT_NE(std::string(error.what()).find("300 ms"), std::string::npos);
  }
  ::close(listen_fd);
}

TEST_F(ServerTest, TimeoutDoesNotFireOnAResponsiveDaemon) {
  auto daemon = make_server(1);
  server::Client client(daemon->socket_path(), /*timeout_ms=*/30000);
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
  // Repeated calls re-arm the window; a healthy daemon never trips it.
  EXPECT_EQ(client.ping().protocol, server::kProtocolVersion);
}

TEST(ServeProtocol, ErrorResponseCarriesStatusAndMessage) {
  const auto payload = server::encode_response(server::Status::kBadRequest,
                                               "unknown design 'x'", false, {});
  const auto response = server::decode_response(payload);
  EXPECT_EQ(response.status, server::Status::kBadRequest);
  EXPECT_EQ(response.message, "unknown design 'x'");
  EXPECT_TRUE(response.body.empty());
}

}  // namespace
