// suite_audit: the 11-design evaluation suite at scale 1.0, audited with a
// fixed budget of 65536 traces per campaign. A run alternates two passes:
//  * local       - core::audit_designs on kLanes lanes;
//  * distributed - server::WorkerPool with one local lane plus two
//                  loopback-TCP server::Workers of one thread each.
// The workers stay up across passes, as a fleet would. sim, power, tvla
// and engine do nearly all the work; des3 and md5 dominate, so LPT balance
// shows. The distributed pass is the only load on net, remote, worker and
// the moments codec.
//
// Traced run: the local pass is split into per-campaign completion spans,
// registry deltas give the engine and net counters, every campaign is
// replayed on one lane through tvla::ShardRunner (checked bit for bit
// against the audit), and worker 0 is probed directly for install and
// shard round trips.
#include <memory>
#include <thread>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "engine/scheduler.hpp"
#include "serialize/archive.hpp"
#include "server/remote.hpp"
#include "server/worker.hpp"
#include "sim/compiled.hpp"
#include "stats.hpp"
#include "tvla/moments_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pl = polaris;

namespace {

constexpr std::size_t kTraces = 65536;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMinPasses = 5;  // per pass kind, however short the run
/// Tail of the single-lane replay's shard times (tvla.shard_us.p99); the
/// replay repeats until it has the samples that tail needs.
constexpr double kShardTailP = 0.99;

struct Fleet {
  std::vector<pl::circuits::Design> suite;
  std::vector<std::unique_ptr<pl::server::Worker>> workers;
  std::unique_ptr<pl::server::WorkerPool> pool;  // destroyed before workers
};

Fleet start_fleet(Tracer& tracer) {
  Fleet fleet;
  {
    auto span = tracer.span("circuits.build");
    fleet.suite = pl::circuits::evaluation_suite(1.0);
  }
  auto span = tracer.span("server.worker_start");
  pl::server::WorkerPoolOptions pool_options;
  pool_options.local_threads = 1;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pl::server::WorkerOptions options;
    options.listen = "tcp:127.0.0.1:0";
    options.threads = 1;
    auto worker = std::make_unique<pl::server::Worker>(options);
    worker->start();  // the listener is bound: the pool can connect at once
    if (!pool_options.workers.empty()) pool_options.workers += ',';
    pool_options.workers += pl::server::net::to_string(worker->endpoint());
    fleet.workers.push_back(std::move(worker));
  }
  fleet.pool = std::make_unique<pl::server::WorkerPool>(pool_options);
  return fleet;
}

pl::core::PolarisConfig audit_config(std::uint64_t seed, std::size_t threads) {
  pl::core::PolarisConfig config;
  config.tvla.traces = kTraces;
  config.tvla.noise_std_fj = 1.0;
  config.tvla.seed = seed;
  config.seed = seed;
  config.threads = threads;
  return config;
}

std::vector<std::uint8_t> encode_moments(const pl::tvla::CampaignMoments& moments) {
  pl::serialize::Writer out;
  pl::tvla::write_moments(out, moments);
  return out.finish();
}

/// Per-pass numbers of the traced local pass.
struct LocalPassTrace {
  std::vector<double> busy_share;
  std::vector<double> done_p50_ms;
  std::vector<double> done_max_ms;
  std::vector<double> campaigns;
  std::vector<double> shards;
};

/// The local pass with one span per campaign, opened on a waiter thread at
/// submission and closed when that campaign's report is ready.
std::vector<pl::tvla::LeakageReport> traced_local_pass(
    const Fleet& fleet, const pl::techlib::TechLibrary& lib,
    const pl::core::PolarisConfig& config, Tracer& tracer,
    LocalPassTrace& trace, double& wall_ms) {
  const RegistryDelta delta;
  auto pass = tracer.span("suite_audit.local_pass");
  const std::int64_t start = steady_ns();
  pl::engine::Scheduler scheduler(config.threads);
  auto pending = pl::core::submit_audits(scheduler, fleet.suite, lib, config);
  std::vector<double> done_ms(pending.size(), 0.0);
  std::vector<std::thread> waiters;
  waiters.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    waiters.emplace_back([&, i] {
      auto span = tracer.child("engine.campaign", pass);
      pending[i].wait();
      done_ms[i] = ms_since(start);
    });
  }
  scheduler.drain();
  for (auto& waiter : waiters) waiter.join();
  wall_ms = ms_since(start);
  pass.close();
  std::vector<pl::tvla::LeakageReport> reports;
  for (auto& future : pending) reports.push_back(future.get());

  const auto counters = delta.take();
  trace.busy_share.push_back(
      static_cast<double>(counters.counter_value("pool.busy_us")) /
      (wall_ms * 1e3 * static_cast<double>(config.threads)));
  trace.done_p50_ms.push_back(median(done_ms));
  trace.done_max_ms.push_back(percentile(done_ms, 1.0));
  trace.campaigns.push_back(
      static_cast<double>(counters.counter_value("sched.campaigns")));
  trace.shards.push_back(static_cast<double>(counters.counter_value("sched.shards")));
  return reports;
}

/// Replays every campaign on one lane through tvla::ShardRunner, with the
/// moments codec round trip per shard, and checks the finalized reports
/// against the audit bit for bit.
void replay_on_one_lane(const Fleet& fleet, const pl::techlib::TechLibrary& lib,
                        const pl::core::PolarisConfig& config,
                        std::span<const pl::tvla::LeakageReport> reference,
                        Tracer& tracer, Report& report) {
  std::vector<double> shard_us;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> bytes;
  double traces = 0.0;
  double setup_ms = 0.0;
  double merge_ms = 0.0;
  double finalize_ms = 0.0;
  std::size_t shards = 0;
  const std::size_t wanted = min_samples_for_tail(kShardTailP);
  for (std::size_t round = 0; round == 0 || shard_us.size() < wanted; ++round) {
    for (std::size_t d = 0; d < fleet.suite.size(); ++d) {
      const auto& design = fleet.suite[d];
      const auto tvla_config = pl::core::tvla_config_for(config, design);
      std::int64_t start = steady_ns();
      auto runner_span = tracer.span("tvla.runner_setup");
      pl::tvla::ShardRunner runner(design.netlist, lib, tvla_config);
      runner_span.close();
      setup_ms += ms_since(start);
      if (round == 0) shards += runner.shard_count();
      std::vector<pl::tvla::CampaignMoments> moments;
      for (std::size_t s = 0; s < runner.shard_count(); ++s) {
        start = steady_ns();
        auto span = tracer.span("tvla.shard");
        moments.push_back(runner.run_shard(s));
        span.close();
        shard_us.push_back(ms_since(start) * 1e3);

        start = steady_ns();
        auto encode_span = tracer.span("serialize.moments_encode");
        auto encoded = encode_moments(moments.back());
        encode_span.close();
        encode_us.push_back(ms_since(start) * 1e3);
        bytes.push_back(static_cast<double>(encoded.size()));
        const auto original = encoded;
        start = steady_ns();
        auto decode_span = tracer.span("serialize.moments_decode");
        pl::serialize::Reader in(std::move(encoded));
        auto decoded = pl::tvla::read_moments(in);
        decode_span.close();
        decode_us.push_back(ms_since(start) * 1e3);
        report.op(encode_moments(decoded) == original,
                  design.name + ": moments codec round trip differs");
      }
      traces += static_cast<double>(tvla_config.traces);
      start = steady_ns();
      auto merge_span = tracer.span("tvla.merge");
      pl::tvla::CampaignMoments total = runner.empty_moments();
      if (!moments.empty()) total = moments[0];
      for (std::size_t s = 1; s < moments.size(); ++s) total.merge(moments[s]);
      merge_span.close();
      merge_ms += ms_since(start);
      start = steady_ns();
      auto finalize_span = tracer.span("tvla.finalize");
      const auto replayed = runner.finalize(total);
      finalize_span.close();
      finalize_ms += ms_since(start);
      report.op(same_report(replayed, reference[d]),
                design.name + ": ShardRunner replay differs from the audit");
    }
  }
  double shard_seconds = 0.0;
  for (const double us : shard_us) shard_seconds += us / 1e6;
  const double rounds = static_cast<double>(shard_us.size()) /
                        static_cast<double>(shards == 0 ? 1 : shards);
  report.metric("tvla.runner_setup_ms", setup_ms / rounds, "ms");
  report.metric("tvla.shards", static_cast<double>(shards), "count");
  report.metric("tvla.shard_us.p50", median(shard_us), "us");
  report.metric("tvla.shard_us.p99", tail(shard_us, kShardTailP, "tvla.shard_us"),
                "us");
  report.metric("tvla.traces_per_s", rounds * traces / shard_seconds, "1/s");
  report.metric("tvla.merge_ms", merge_ms / rounds, "ms");
  report.metric("tvla.finalize_ms", finalize_ms / rounds, "ms");
  report.metric("serialize.moments_encode_us.p50", median(encode_us), "us");
  report.metric("serialize.moments_decode_us.p50", median(decode_us), "us");
  report.metric("serialize.moments_bytes.p50", median(bytes), "bytes");
  report.detail("tvla.replay_shard_samples", static_cast<double>(shard_us.size()));
}

/// One timed round trip to a worker.
pl::server::Response timed_roundtrip(Connection& connection,
                                     std::span<const std::uint8_t> payload,
                                     std::vector<double>& us) {
  const std::int64_t start = steady_ns();
  auto response = connection.roundtrip(payload);
  us.push_back(ms_since(start) * 1e3);
  return response;
}

/// Installs each design on worker 0 and runs each campaign's first shard
/// chunk there, checking the moments against a local run.
void probe_worker(const Fleet& fleet, const pl::techlib::TechLibrary& lib,
                  const pl::core::PolarisConfig& config, Tracer& tracer,
                  Report& report) {
  Connection connection(fleet.workers[0]->endpoint());
  std::vector<double> design_us;
  std::vector<double> shard_us;
  for (const auto& design : fleet.suite) {
    {
      auto span = tracer.span("worker.design");
      const auto response = timed_roundtrip(
          connection, pl::server::encode_design_request(design), design_us);
      report.op(response.status == pl::server::Status::kOk,
                design.name + ": worker design install failed");
    }
    pl::server::ShardRequest request;
    request.fingerprint = pl::core::design_fingerprint(design);
    request.config = config;
    pl::tvla::ShardRunner runner(design.netlist, lib,
                                 pl::core::tvla_config_for(config, design));
    request.shard_end = std::min(pl::server::kShardsPerChunk, runner.shard_count());
    auto span = tracer.span("worker.shard");
    const auto response = timed_roundtrip(
        connection, pl::server::encode_shard_request(request), shard_us);
    span.close();
    bool ok = response.status == pl::server::Status::kOk;
    if (ok) {
      const auto reply = pl::server::decode_shard_reply(response.body);
      ok = reply.shards.size() == request.shard_end;
      for (std::size_t i = 0; ok && i < reply.shards.size(); ++i) {
        ok = reply.shards[i].shard == i &&
             encode_moments(reply.shards[i].moments) ==
                 encode_moments(runner.run_shard(i));
      }
    }
    report.op(ok, design.name + ": worker shard moments differ from a local run");
  }
  report.metric("worker.design_us.p50", median(design_us), "us");
  report.metric("worker.shard_us.p50", median(shard_us), "us");
}

}  // namespace

void run_suite_audit(const RunOptions& run, Report& report, Tracer& tracer) {
  const auto lib = pl::techlib::TechLibrary::default_library();
  // One cold set-up per loop iteration, beside the fleet the passes use.
  SetupSampler<Fleet> setup([&] { return start_fleet(tracer); });
  Fleet fleet = setup.sample();

  const auto local_config = audit_config(run.seed, kLanes);
  const auto dist_config = audit_config(run.seed, 1);
  const std::size_t designs = fleet.suite.size();

  // First pass of each kind: cold (first-touch, allocator growth), kept out
  // of the medians. The first local pass is the reference every later
  // pass must match bit for bit.
  std::int64_t start = steady_ns();
  const auto reference = pl::core::audit_designs(fleet.suite, lib, local_config);
  const double first_ms = ms_since(start);
  report.detail("audit_first_ms", first_ms);
  report.op(reference.size() == designs, "first local pass lost designs");
  start = steady_ns();
  report.op(same_reports(fleet.pool->audit(fleet.suite, lib, dist_config), reference),
            "first distributed pass differs from the first local pass");
  report.detail("dist_audit_first_ms", ms_since(start));

  std::vector<double> local_ms;
  std::vector<double> traced_local_ms;
  std::vector<double> dist_ms;
  LocalPassTrace local_trace;
  std::vector<double> net_mb, shards_out, moments_in, resends;
  const RegistryDelta loop_delta;
  const std::int64_t deadline =
      steady_ns() + static_cast<std::int64_t>(run.seconds * 1e9);
  while (steady_ns() < deadline || dist_ms.size() < kMinPasses) {
    if (tracer.enabled()) {
      double wall_ms = 0.0;
      const auto reports =
          traced_local_pass(fleet, lib, local_config, tracer, local_trace, wall_ms);
      traced_local_ms.push_back(wall_ms);
      report.op(same_reports(reports, reference),
                "traced local pass differs from the first local pass");
    }
    start = steady_ns();
    const auto local = pl::core::audit_designs(fleet.suite, lib, local_config);
    local_ms.push_back(ms_since(start));
    report.op(same_reports(local, reference),
              "local pass differs from the first local pass");

    const RegistryDelta net_delta;
    start = steady_ns();
    auto span = tracer.span("suite_audit.dist_pass");
    const auto dist = fleet.pool->audit(fleet.suite, lib, dist_config);
    span.close();
    dist_ms.push_back(ms_since(start));
    report.op(same_reports(dist, reference),
              "distributed pass differs from the first local pass");
    const auto net = net_delta.take();
    net_mb.push_back(static_cast<double>(net.counter_value("net.bytes")) / 1e6);
    shards_out.push_back(static_cast<double>(net.counter_value("net.shards_out")));
    moments_in.push_back(static_cast<double>(net.counter_value("net.moments_in")));
    resends.push_back(static_cast<double>(net.counter_value("net.resends")));
    (void)setup.sample();
  }
  report.metric("setup_s", setup.median_s(), "s");
  report.detail("setup_first_s", setup.first_s());
  report.detail("setup_samples", static_cast<double>(setup.count()));
  report.metric("primary_p50_ms", median(local_ms), "ms");
  report.metric("secondary_p50_ms", median(dist_ms), "ms");
  report.detail("audit_ms", median(local_ms));
  report.detail("audit_samples", static_cast<double>(local_ms.size()));
  report.detail("audit_iqr_share", relative_iqr(local_ms));
  report.detail("dist_audit_ms", median(dist_ms));
  report.detail("dist_audit_samples", static_cast<double>(dist_ms.size()));
  report.detail("dist_audit_iqr_share", relative_iqr(dist_ms));
  report.detail("net_mb_per_pass", median(net_mb));

  if (!tracer.enabled()) return;
  const auto loop = loop_delta.take();
  report.metric("loop.first_pass_ms", first_ms, "ms");
  report.metric("circuits.build_ms", median(tracer.durations_ms("circuits.build")),
                "ms");
  double compile_ms = 0.0;
  for (const auto& design : fleet.suite) {
    start = steady_ns();
    auto span = tracer.span("sim.compile");
    (void)pl::sim::compile(design.netlist);
    span.close();
    compile_ms += ms_since(start);
  }
  report.metric("sim.compile_ms", compile_ms, "ms");
  report.metric("engine.busy_share", median(local_trace.busy_share), "ratio");
  report.metric("engine.campaign_done_ms.p50", median(local_trace.done_p50_ms), "ms");
  report.metric("engine.campaign_done_ms.max", median(local_trace.done_max_ms), "ms");
  report.metric("sched.campaigns", median(local_trace.campaigns), "count");
  report.metric("sched.shards", median(local_trace.shards), "count");
  report.metric("sched.shard_us.p99",
                histogram_percentile(loop, "sched.shard_us", 0.99), "us");
  report.metric("net.bytes_per_pass_mb", median(net_mb), "MB");
  report.metric("net.remote_share",
                median(shards_out) / median(local_trace.shards), "ratio");
  report.metric("net.shards_out", median(shards_out), "count");
  report.metric("net.moments_in", median(moments_in), "count");
  report.metric("net.resends", median(resends), "count");
  report.metric("trace_overhead_ms", median(traced_local_ms) - median(local_ms), "ms");

  replay_on_one_lane(fleet, lib, local_config, reference, tracer, report);
  probe_worker(fleet, lib, local_config, tracer, report);
}

}  // namespace perfbench
