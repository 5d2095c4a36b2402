// serve_mixed: an in-process server::Server on a Unix socket with two
// scheduler lanes, serving a bundle trained at the paper configuration in
// an untimed prep step of the same run. A closed loop of kClients client
// connections drives it - each caller sends its next audit only once the
// last reply arrived. Every client sends a fixed seeded sequence of audits
// over all 11 evaluation designs at scale 1.0:
//  * 17 of every 20 repeat one of the 11 pre-warmed keys (cache reads);
//  * 3 of every 20 carry a fresh seed (cold fills at 16384 traces).
// Each block of a client's sequence walks the designs in a seeded order,
// so every seed gets the same design mix. A hit rebuilds and fingerprints
// the circuit before the cache lookup (the warm-hit cost on des3 and md5);
// the cold share running beside the hits shows whether a hit-path change
// costs the fill path. Cold fills go one at a time: a client that draws one
// waits, untimed, until no other client's fill is in flight. Concurrent
// fills would queue behind each other's shards (the scheduler runs the
// heavier campaign first), so a fill's latency would depend on how many
// overlap, and that grows faster than the host slows: 15 % slower
// compute-bound passes came with 20 % slower cold rounds.
// Each seeded permutation a client walks is a round:
// one hit (or cold fill) of every design. The end-to-end latencies are the
// median client-observed time of a hit round and of a cold round; the
// pooled per-request percentiles go to the detail line.
//
// Traced run: per-request spans on every other request (trace overhead),
// registry deltas for the daemon, cache and scheduler, and direct probes
// of the calls a hit makes before its lookup (load_design, fingerprints).
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "server/server.hpp"
#include "sim/compiled.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pl = polaris;

namespace {

constexpr std::size_t kServerLanes = 2;
constexpr std::size_t kClients = 3;
constexpr std::size_t kColdTraces = 16384;
constexpr std::size_t kBlock = 20;        // requests per sequence block
constexpr std::size_t kColdPerBlock = 3;  // fresh seeds per block (15 %)
constexpr double kHitTailP = 0.99;
constexpr double kColdTailP = 0.95;
/// Every cold fill stays resident, so a hit key is never evicted.
constexpr std::size_t kCacheCapacity = std::size_t{1} << 16;
/// A run that cannot gather its tail samples in this long fails.
constexpr double kMaxLoopSeconds = 120.0;
/// Samples per hit key for the traced load_design/fingerprint probes:
/// 11 keys x 10 leave 10 samples beyond the p90.
constexpr std::size_t kProbeRounds = 10;
constexpr double kProbeTailP = 0.90;
/// Timed daemon constructions, after the discarded first one.
constexpr std::size_t kServerSetups = 11;

/// splitmix64: the benchmark's own input generator, independent of the
/// library's RNG.
struct InputRng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
  template <class T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }
};

/// One client's request stream: per block of kBlock requests, kColdPerBlock
/// seeded positions are cold; hits and colds each walk seeded permutations
/// of the designs, so the design mix is the same for every seed.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t client, std::size_t designs)
      : rng_{seed * 0x100000001b3ULL + client + 1}, designs_(designs) {}

  struct Next {
    std::size_t design = 0;
    bool cold = false;
    std::uint64_t cold_seed = 0;
    /// Which permutation of its kind (hit or cold) the design came from:
    /// the requests of one round cover every design once.
    std::size_t round = 0;
  };

  Next next() {
    if (position_ % kBlock == 0) {
      block_.assign(kBlock, 0);
      for (std::size_t i = 0; i < kColdPerBlock; ++i) block_[i] = 1;
      rng_.shuffle(block_);
    }
    Next request;
    request.cold = block_[position_ % kBlock] != 0;
    auto& order = request.cold ? cold_order_ : hit_order_;
    request.design = draw(order);
    request.round = order.rounds - 1;
    if (request.cold) request.cold_seed = rng_.next() | 1;  // never 0
    ++position_;
    return request;
  }

 private:
  struct Order {
    std::vector<std::size_t> left;
    std::size_t rounds = 0;
  };

  std::size_t draw(Order& order) {
    if (order.left.empty()) {
      for (std::size_t d = 0; d < designs_; ++d) order.left.push_back(d);
      rng_.shuffle(order.left);
      ++order.rounds;
    }
    const std::size_t design = order.left.back();
    order.left.pop_back();
    return design;
  }

  InputRng rng_;
  std::size_t designs_;
  std::size_t position_ = 0;
  std::vector<char> block_;  // 1 = cold position in the current block
  Order hit_order_;
  Order cold_order_;
};

pl::server::AuditRequest audit_request(const std::string& design,
                                       const pl::core::PolarisConfig& base,
                                       std::uint64_t tvla_seed) {
  pl::server::AuditRequest request;
  request.design = design;
  request.scale = 1.0;
  request.config = base;
  request.config.tvla.seed = tvla_seed;
  return request;
}

struct Sample {
  double ms = 0.0;
  bool cold = false;
  bool spanned = false;
  std::size_t bytes = 0;
  std::size_t round = 0;
};

/// Total latency of every complete round of one kind (hit or cold) in one
/// client's samples: a round's requests cover each design once.
void round_totals(const std::vector<Sample>& samples, bool cold, std::size_t designs,
                  std::vector<double>& totals) {
  std::map<std::size_t, std::pair<std::size_t, double>> rounds;  // count, ms
  for (const auto& sample : samples) {
    if (sample.cold != cold) continue;
    auto& round = rounds[sample.round];
    ++round.first;
    round.second += sample.ms;
  }
  for (const auto& [index, round] : rounds) {
    if (round.first == designs) totals.push_back(round.second);
  }
}

/// A reply kept for the check against core::audit_designs.
struct CheckedReply {
  std::size_t design = 0;
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> body;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<CheckedReply> cold_checks;  // first cold reply per design
};

}  // namespace

void run_serve_mixed(const RunOptions& run, Report& report, Tracer& tracer) {
  const auto lib = pl::techlib::TechLibrary::default_library();
  const auto names = pl::circuits::evaluation_names();
  // Every audit uses the paper configuration at kColdTraces; the run's seed
  // is the pre-warmed keys' TVLA seed and seeds the request streams.
  auto audit_config = paper_config(run.seed);
  audit_config.tvla.traces = kColdTraces;

  // Prep (untimed): the bundle the daemon serves. Audits never consult the
  // model, so it is trained under one fixed seed.
  const std::string bundle = "serve_mixed.plb";
  {
    pl::core::Polaris polaris(paper_config(1));
    (void)polaris.train(pl::circuits::training_suite(), lib);
    const std::int64_t start = steady_ns();
    polaris.save_bundle(bundle);
    if (tracer.enabled()) {
      report.metric("serialize.bundle_save_ms", ms_since(start), "ms");
      report.metric("serialize.bundle_bytes",
                    static_cast<double>(std::filesystem::file_size(bundle)), "bytes");
    }
  }
  report.detail("prep_rss_mb", peak_rss_mb());
  if (tracer.enabled()) {
    const std::int64_t start = steady_ns();
    (void)pl::core::Polaris::load_bundle(bundle);
    report.metric("serialize.bundle_load_ms", ms_since(start), "ms");
  }

  pl::server::ServerOptions options;
  options.socket_path = "serve_mixed.sock";
  options.bundle_path = bundle;
  options.threads = kServerLanes;
  options.cache_capacity = kCacheCapacity;
  // The set-ups run back to back here: the loop below is one block.
  SetupSampler<std::unique_ptr<pl::server::Server>> setup([&] {
    auto span = tracer.span("server.construct");
    auto daemon = std::make_unique<pl::server::Server>(options);
    daemon->start();  // bound and listening: clients connect at once
    return daemon;
  });
  std::unique_ptr<pl::server::Server> server;
  while (setup.count() < kServerSetups) {
    server.reset();  // one daemon per socket path at a time
    server = setup.sample();
  }
  report.metric("setup_s", setup.median_s(), "s");
  report.detail("setup_first_s", setup.first_s());

  // Pre-warm one key per design: the cold first pass, and the body every
  // later hit on that key must repeat byte for byte.
  std::vector<std::vector<std::uint8_t>> warm_bodies(names.size());
  {
    Connection connection(server->endpoint());
    const std::int64_t start = steady_ns();
    for (std::size_t d = 0; d < names.size(); ++d) {
      auto response = connection.roundtrip(pl::server::encode_audit_request(
          audit_request(names[d], audit_config, run.seed)));
      report.op(response.status == pl::server::Status::kOk && !response.cache_hit,
                names[d] + ": pre-warm audit failed");
      warm_bodies[d] = std::move(response.body);
    }
    const double first_ms = ms_since(start);
    report.detail("prewarm_ms", first_ms);
    if (tracer.enabled()) report.metric("loop.first_pass_ms", first_ms, "ms");
  }

  // The closed loop. Each client stops once the run's seconds are up AND
  // both tails have their samples; the first block of each client is
  // warm-up and not recorded.
  std::atomic<std::size_t> hits_recorded{0};
  std::atomic<std::size_t> colds_recorded{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<ClientResult> results(kClients);
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::mutex cold_fill;  // held by the client whose cold fill is in flight
  const std::size_t min_hits = min_samples_for_tail(kHitTailP);
  const std::size_t min_colds = min_samples_for_tail(kColdTailP);
  const RegistryDelta loop_delta;
  std::int64_t loop_start = 0;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto fail = [&](const std::string& what) {
        const std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(what);
      };
      try {
        Connection connection(server->endpoint());
        RequestStream stream(run.seed, c, names.size());
        std::vector<bool> cold_checked(names.size(), false);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        const std::int64_t deadline =
            loop_start + static_cast<std::int64_t>(run.seconds * 1e9);
        const std::int64_t give_up =
            loop_start + static_cast<std::int64_t>(kMaxLoopSeconds * 1e9);
        for (std::size_t i = 0;; ++i) {
          const std::int64_t now = steady_ns();
          if (now >= deadline && hits_recorded.load() >= min_hits &&
              colds_recorded.load() >= min_colds) {
            break;
          }
          if (now >= give_up) {
            fail("too few samples for the tails within the loop's time cap");
            break;
          }
          const auto next = stream.next();
          const auto payload = pl::server::encode_audit_request(audit_request(
              names[next.design], audit_config, next.cold ? next.cold_seed : run.seed));
          const bool spanned = tracer.enabled() && i % 2 == 0;
          std::unique_lock<std::mutex> only_fill(cold_fill, std::defer_lock);
          if (next.cold) only_fill.lock();
          const std::int64_t start = steady_ns();
          auto span = spanned ? tracer.span(next.cold ? "serve.cold" : "serve.hit")
                              : Tracer::Scope{};
          auto response = connection.roundtrip(payload);
          span.close();
          const double ms = ms_since(start);
          if (next.cold) only_fill.unlock();
          const bool ok = response.status == pl::server::Status::kOk &&
                          response.cache_hit == !next.cold &&
                          (next.cold || response.body == warm_bodies[next.design]);
          if (!ok) {
            fail(names[next.design] + (next.cold ? ": cold" : ": hit") +
                 " reply is not what the cache contract promises");
          }
          const std::size_t bytes = response.body.size();
          if (next.cold && !cold_checked[next.design]) {
            cold_checked[next.design] = true;
            results[c].cold_checks.push_back(
                {next.design, next.cold_seed, std::move(response.body)});
          }
          if (i < kBlock) continue;  // warm-up block
          results[c].samples.push_back({ms, next.cold, spanned, bytes, next.round});
          (next.cold ? colds_recorded : hits_recorded).fetch_add(1);
        }
      } catch (const std::exception& error) {
        fail(std::string("client: ") + error.what());
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  loop_start = steady_ns();
  go.store(true);
  for (auto& client : clients) client.join();
  const double loop_s = ms_since(loop_start) / 1e3;
  const auto loop = loop_delta.take();

  std::vector<double> hit_ms, cold_ms, spanned_hit_ms, plain_hit_ms, bytes;
  std::vector<double> hit_rounds, cold_rounds;
  for (const auto& result : results) {
    round_totals(result.samples, false, names.size(), hit_rounds);
    round_totals(result.samples, true, names.size(), cold_rounds);
    for (const auto& sample : result.samples) {
      (sample.cold ? cold_ms : hit_ms).push_back(sample.ms);
      if (!sample.cold) {
        (sample.spanned ? spanned_hit_ms : plain_hit_ms).push_back(sample.ms);
      }
      bytes.push_back(static_cast<double>(sample.bytes));
    }
  }
  for (const auto& failure : failures) report.op(false, failure);
  for (std::size_t i = 0; i < hit_ms.size() + cold_ms.size(); ++i) report.op(true);

  // The pre-warmed bodies and a fixed sample of cold replies - each
  // client's first per design - must equal an offline audit of the same
  // request.
  std::vector<CheckedReply> checks;
  for (std::size_t d = 0; d < names.size(); ++d) {
    checks.push_back({d, run.seed, std::move(warm_bodies[d])});
  }
  for (auto& result : results) {
    for (auto& cold : result.cold_checks) checks.push_back(std::move(cold));
  }
  for (const auto& check : checks) {
    auto design = pl::circuits::load_design(names[check.design], 1.0);
    auto request_config = audit_config;
    request_config.tvla.seed = check.seed;
    const auto offline = pl::core::audit_designs({&design, 1}, lib, request_config);
    const auto reply = pl::server::decode_audit_reply(check.body);
    report.op(reply.design_name == names[check.design] &&
                  same_report(reply.report, offline[0]),
              names[check.design] + ": reply differs from core::audit_designs");
  }

  // The end-to-end figures are medians over rounds, not over requests: the
  // pooled medians fall inside the spread of the mid-sized designs
  // (div, sqrt, voter), so they move with those designs' tails.
  report.metric("primary_p50_ms", median(hit_rounds), "ms");
  report.metric("secondary_p50_ms", median(cold_rounds), "ms");
  report.detail("hit_round_p50_ms", median(hit_rounds));
  report.detail("hit_rounds", static_cast<double>(hit_rounds.size()));
  report.detail("cold_round_p50_ms", median(cold_rounds));
  report.detail("cold_rounds", static_cast<double>(cold_rounds.size()));
  report.detail("hit_p50_ms", median(hit_ms));
  report.detail("hit_p99_ms", tail(hit_ms, kHitTailP, "hit_p99_ms"));
  report.detail("hit_samples", static_cast<double>(hit_ms.size()));
  report.detail("cold_p50_ms", median(cold_ms));
  report.detail("cold_p95_ms", tail(cold_ms, kColdTailP, "cold_p95_ms"));
  report.detail("cold_samples", static_cast<double>(cold_ms.size()));
  report.detail("loop_s", loop_s);
  report.detail("requests_per_s",
                static_cast<double>(hit_ms.size() + cold_ms.size()) / loop_s);

  if (tracer.enabled()) {
    report.metric("trace_overhead_ms", median(spanned_hit_ms) - median(plain_hit_ms),
                  "ms");
    report.metric("server.audit_us.p50",
                  histogram_percentile(loop, "server.audit_us", 0.50), "us");
    report.metric("server.audit_us.p99",
                  histogram_percentile(loop, "server.audit_us", 0.99), "us");
    report.metric("server.reply_bytes.p50", median(bytes), "bytes");
    const double hits = static_cast<double>(loop.counter_value("cache.hits"));
    const double misses = static_cast<double>(loop.counter_value("cache.misses"));
    report.metric("cache.hits", hits, "count");
    report.metric("cache.misses", misses, "count");
    report.metric("cache.hit_ratio", hits / (hits + misses), "ratio");
    report.metric("cache.evictions",
                  static_cast<double>(loop.counter_value("cache.evictions")), "count");
    report.metric("sched.campaign_us.p50",
                  histogram_percentile(loop, "sched.campaign_us", 0.50), "us");

    // The daemon's own ping latency, from its request histogram.
    const RegistryDelta ping_delta;
    {
      Connection connection(server->endpoint());
      for (std::size_t i = 0; i < 100; ++i) {
        report.op(connection.roundtrip(pl::server::encode_ping_request()).status ==
                      pl::server::Status::kOk,
                  "ping failed");
      }
    }
    report.metric("server.ping_us.p50",
                  histogram_percentile(ping_delta.take(), "server.ping_us", 0.50),
                  "us");

    // What a hit does before its cache lookup, call by call, plus the
    // compile a cold fill adds.
    std::vector<double> load_us, design_fp_us, config_fp_us;
    double compile_ms = 0.0;
    for (std::size_t round = 0; round < kProbeRounds; ++round) {
      for (const auto& name : names) {
        std::int64_t start = steady_ns();
        auto span = tracer.span("circuits.load_design");
        const auto design = pl::circuits::load_design(name, 1.0);
        span.close();
        load_us.push_back(ms_since(start) * 1e3);
        if (round == 0) {
          start = steady_ns();
          auto compile_span = tracer.span("sim.compile");
          (void)pl::sim::compile(design.netlist);
          compile_span.close();
          compile_ms += ms_since(start);
        }
        start = steady_ns();
        auto fp_span = tracer.span("core.design_fingerprint");
        (void)pl::core::design_fingerprint(design);
        fp_span.close();
        design_fp_us.push_back(ms_since(start) * 1e3);
        start = steady_ns();
        (void)pl::core::config_fingerprint(audit_config);
        config_fp_us.push_back(ms_since(start) * 1e3);
      }
    }
    report.metric("circuits.load_design_us.p50", median(load_us), "us");
    report.metric("circuits.load_design_us.p90",
                  tail(load_us, kProbeTailP, "circuits.load_design_us"), "us");
    report.metric("core.design_fingerprint_us.p50", median(design_fp_us), "us");
    report.metric("core.design_fingerprint_us.p90",
                  tail(design_fp_us, kProbeTailP, "core.design_fingerprint_us"), "us");
    report.metric("core.config_fingerprint_us.p50", median(config_fp_us), "us");
    report.metric("sim.compile_ms", compile_ms, "ms");
  }

  server.reset();
  std::filesystem::remove(bundle);
}

}  // namespace perfbench
