// Global scheduler bench: N unequal-size TVLA campaigns (the shape of a
// suite audit or an Algorithm-1 labelling sweep) run two ways:
//  * per-campaign - campaigns back to back, each sharding across the full
//    pool (the PR-1 path): small campaigns can't overlap the big ones, so
//    the suite pays every campaign's fork/join tail in sequence;
//  * global scheduler - every campaign's shards in ONE priority queue
//    (heaviest first), drained by the shared pool.
// Reports per-campaign completion latency (mean/max = tail), makespan, and
// traces/sec for both paths as a JSON line, and verifies the two paths
// produce bit-identical reports while at it.
//
// Env knobs (bench_common.hpp): POLARIS_BENCH_TRACES scales the base
// budget, POLARIS_BENCH_THREADS the fan-out.
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/scheduler.hpp"
#include "server/remote.hpp"
#include "server/worker.hpp"
#include "sim/compiled.hpp"
#include "tvla/tvla.hpp"
#include "util/timer.hpp"

using namespace polaris;

namespace {

struct CampaignSpec {
  const char* design;
  double scale;
  double traces_factor;  // of the base budget: deliberately unequal
};

// Unequal on both axes (gate count and trace budget): the worst case for
// back-to-back campaigns, the motivating case for the global queue.
constexpr CampaignSpec kSpecs[] = {
    {"des3", 1.0, 1.0},     {"square", 1.0, 0.5},  {"sin", 0.6, 0.25},
    {"voter", 0.8, 0.5},    {"multiplier", 0.5, 0.25}, {"md5", 0.35, 0.125},
    {"arbiter", 0.5, 0.25}, {"log2", 0.25, 0.125},
};

}  // namespace

int main() {
  const auto setup = bench::BenchSetup::from_env();
  std::printf("=== Global shard scheduler: %zu unequal campaigns ===\n\n",
              std::size(kSpecs));

  std::vector<circuits::Design> designs;
  std::vector<tvla::TvlaConfig> configs;
  std::size_t total_traces = 0;
  for (const auto& spec : kSpecs) {
    designs.push_back(circuits::get_design(spec.design, spec.scale));
    tvla::TvlaConfig config;
    config.traces = static_cast<std::size_t>(
        static_cast<double>(setup.traces) * spec.traces_factor);
    if (config.traces < 64) config.traces = 64;
    config.noise_std_fj = 1.0;
    config.seed = setup.seed;
    config.threads = setup.threads;
    configs.push_back(config);
    total_traces += config.traces;
  }
  const std::size_t n = designs.size();

  // One-off compile of the whole suite: both timed paths below share these
  // plans, so compile_ms is pure kernel setup and the campaign timings are
  // pure trace time.
  std::vector<sim::CompiledDesignPtr> compiled;
  compiled.reserve(n);
  util::Timer compile_timer;
  for (const auto& design : designs) {
    compiled.push_back(sim::compile(design.netlist));
  }
  const double compile_ms = compile_timer.seconds() * 1e3;

  // --- per-campaign path: back to back, each sharded across the pool ----
  std::vector<tvla::LeakageReport> sequential_reports;
  std::vector<double> sequential_done(n, 0.0);
  util::Timer sequential_timer;
  for (std::size_t i = 0; i < n; ++i) {
    sequential_reports.push_back(
        tvla::run_fixed_vs_random(compiled[i], setup.lib, configs[i]));
    sequential_done[i] = sequential_timer.seconds();
  }
  const double sequential_seconds = sequential_timer.seconds();

  // --- global scheduler: one queue, one drain ---------------------------
  // Submission builds each campaign's protocol state (power model, sampling
  // plan, shard registration) - setup work, not queue throughput. It is
  // timed separately (submit_ms) so scheduler_seconds measures the drain
  // alone and stays comparable across PRs that change setup cost.
  engine::Scheduler scheduler(setup.threads);
  std::vector<std::future<tvla::LeakageReport>> pending;
  pending.reserve(n);
  util::Timer submit_timer;
  for (std::size_t i = 0; i < n; ++i) {
    pending.push_back(tvla::submit_fixed_vs_random(scheduler, compiled[i],
                                                   setup.lib, configs[i]));
  }
  const double submit_ms = submit_timer.seconds() * 1e3;

  // Waiter threads stamp each campaign's completion latency relative to
  // drain start (they block on the futures while the pool drains the
  // queue; nothing completes before drain()).
  std::vector<double> scheduler_done(n, 0.0);
  std::vector<std::thread> waiters;
  waiters.reserve(n);
  util::Timer scheduler_timer;
  for (std::size_t i = 0; i < n; ++i) {
    waiters.emplace_back([&, i] {
      pending[i].wait();
      scheduler_done[i] = scheduler_timer.seconds();
    });
  }
  scheduler.drain();
  for (auto& waiter : waiters) waiter.join();
  const double scheduler_seconds = scheduler_timer.seconds();

  // --- identical results, better tail ----------------------------------
  std::size_t mismatched = 0;
  std::printf("%-12s %8s %7s  %13s %13s\n", "design", "gates", "traces",
              "seq done (s)", "sched done (s)");
  for (std::size_t i = 0; i < n; ++i) {
    const auto report = pending[i].get();
    const auto& reference = sequential_reports[i].t_values();
    for (std::size_t g = 0; g < reference.size(); ++g) {
      if (reference[g] != report.t_values()[g]) {
        ++mismatched;
        break;
      }
    }
    std::printf("%-12s %8zu %7zu  %13.3f %13.3f\n", designs[i].name.c_str(),
                designs[i].netlist.gate_count(), configs[i].traces,
                sequential_done[i], scheduler_done[i]);
  }
  std::printf("\nbit-identical reports: %s\n",
              mismatched == 0 ? "yes (all campaigns)" : "NO - DETERMINISM BUG");

  auto mean = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  };
  auto max_of = [](const std::vector<double>& xs) {
    double peak = 0.0;
    for (const double x : xs) peak = std::max(peak, x);
    return peak;
  };

  bench::JsonLine line("scheduler");
  line.field("designs", n)
      .field("threads", scheduler.threads())
      .field("total_traces", total_traces)
      .field("compile_ms", compile_ms)
      .field("submit_ms", submit_ms)
      .field("sequential_seconds", sequential_seconds)
      .field("sequential_mean_latency", mean(sequential_done))
      .field("scheduler_seconds", scheduler_seconds)
      .field("scheduler_mean_latency", mean(scheduler_done))
      .field("scheduler_tail_latency", max_of(scheduler_done))
      .field("speedup",
             scheduler_seconds > 0.0 ? sequential_seconds / scheduler_seconds
                                     : 0.0)
      .field("traces_per_sec",
             scheduler_seconds > 0.0
                 ? static_cast<double>(total_traces) / scheduler_seconds
                 : 0.0,
             1);
  bench::append_obs_counters(line, {"sched.campaigns", "sched.shards"})
      .print();

  // --- distributed: coordinator + loopback TCP shard workers ------------
  // The same suite audited through the WorkerPool (the `audit --workers`
  // path) under ONE uniform config, with a single local lane so added
  // workers are the only scaling axis. Workers are real TCP servers on
  // loopback ephemeral ports - the full wire path (design install, shard
  // requests, moments replies, the coordinator's ascending merge), just
  // without the network between hosts. Every row is verified bit-identical to the
  // zero-worker run before it is reported.
  std::printf("\n=== Distributed suite audit: local lane + N workers ===\n\n");
  core::PolarisConfig dist_config;
  dist_config.tvla.traces = setup.traces;
  dist_config.tvla.noise_std_fj = 1.0;
  dist_config.tvla.seed = setup.seed;
  dist_config.seed = setup.seed;
  dist_config.threads = 1;

  std::vector<tvla::LeakageReport> local_reports;
  double local_seconds = 0.0;
  {
    server::WorkerPoolOptions options;
    options.local_threads = 1;
    server::WorkerPool pool(options);
    util::Timer timer;
    local_reports = pool.audit(designs, setup.lib, dist_config);
    local_seconds = timer.seconds();
  }
  const std::size_t dist_traces = setup.traces * n;
  std::printf("%-10s %10s %10s %9s %11s %8s\n", "workers", "seconds",
              "traces/s", "speedup", "moments_in", "resends");
  std::printf("%-10s %10.3f %10.0f %9s %11s %8s\n", "0 (base)", local_seconds,
              static_cast<double>(dist_traces) / local_seconds, "1.00x", "-",
              "-");

  std::size_t dist_mismatched = 0;
  for (const std::size_t worker_count : {2u, 4u}) {
    std::vector<std::unique_ptr<server::Worker>> fleet;
    server::WorkerPoolOptions options;
    options.local_threads = 1;
    for (std::size_t w = 0; w < worker_count; ++w) {
      server::WorkerOptions worker_options;
      worker_options.listen = "tcp:127.0.0.1:0";
      worker_options.threads = 1;
      fleet.push_back(std::make_unique<server::Worker>(worker_options));
      fleet.back()->start();
      if (!options.workers.empty()) options.workers += ",";
      options.workers += server::net::to_string(fleet.back()->endpoint());
    }
    server::WorkerPool pool(options);
    util::Timer timer;
    const auto reports = pool.audit(designs, setup.lib, dist_config);
    const double seconds = timer.seconds();
    for (auto& worker : fleet) {
      worker->request_stop();
      worker->wait();
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (reports[i].t_values() != local_reports[i].t_values()) {
        ++dist_mismatched;
        break;
      }
    }
    const auto totals = pool.totals();
    const double speedup = seconds > 0.0 ? local_seconds / seconds : 0.0;
    std::printf("%-10zu %10.3f %10.0f %8.2fx %11llu %8llu\n", worker_count,
                seconds, static_cast<double>(dist_traces) / seconds, speedup,
                static_cast<unsigned long long>(totals.moments_in),
                static_cast<unsigned long long>(totals.resends));

    bench::JsonLine dist_line("scheduler_distributed");
    dist_line.field("designs", n)
        .field("workers", worker_count)
        .field("total_traces", dist_traces)
        .field("local_seconds", local_seconds)
        .field("distributed_seconds", seconds)
        .field("speedup", speedup)
        .field("moments_in", totals.moments_in)
        .field("resends", totals.resends)
        .field("bytes", totals.bytes);
    dist_line.print();
  }
  std::printf("\nbit-identical distributed reports: %s\n",
              dist_mismatched == 0 ? "yes (all campaigns)"
                                   : "NO - DETERMINISM BUG");

  return mismatched == 0 && dist_mismatched == 0 ? 0 : 1;
}
