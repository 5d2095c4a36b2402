// Reproduces Fig. 4: "TVLA values before and after masking in des3 design.
// Gates exceeding threshold (+-4.5) are considered as leaky." Prints the
// per-gate t-value series (binned ASCII profile) and exports the raw series
// as CSV.
//
// First come the kernel probes (plain aes_sbox, its early-stop variant,
// plain des3, and masked square and des3); POLARIS_BENCH_KERNEL_ONLY=1
// stops after them.
// They use only public API, so this file also builds against older sources
// for a same-host before/after comparison.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "circuits/aes_sbox.hpp"
#include "engine/thread_pool.hpp"
#include "masking/masking.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/simd.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

using namespace polaris;

namespace {

/// `count` maskable gates of `design`, drawn by a Fisher-Yates shuffle with
/// the given seed (hand-written, so the draw is the same on every standard
/// library).
std::vector<netlist::GateId> shuffled_maskable(const netlist::Netlist& design,
                                               std::size_t count,
                                               std::uint64_t seed) {
  std::vector<netlist::GateId> gates;
  for (netlist::GateId g = 0; g < design.gate_count(); ++g) {
    if (netlist::is_maskable(design.gate(g).type)) gates.push_back(g);
  }
  util::Xoshiro256 rng(seed);
  for (std::size_t i = gates.size(); i > 1; --i) {
    std::swap(gates[i - 1], gates[rng.bounded(i)]);
  }
  if (gates.size() > count) gates.resize(count);
  return gates;
}

/// The best of three runs of one campaign, and its t-series hash.
struct ProbeRun {
  double seconds = 0.0;
  std::string t_fnv1a;
};

ProbeRun best_of_three(const sim::CompiledDesignPtr& compiled,
                       const techlib::TechLibrary& lib,
                       const tvla::TvlaConfig& config) {
  ProbeRun best;
  for (int run = 0; run < 3; ++run) {
    util::Timer timer;
    const auto report =
        tvla::run({.compiled = compiled, .lib = &lib, .config = config});
    const double seconds = timer.seconds();
    if (run == 0 || seconds < best.seconds) best.seconds = seconds;
    const auto& t = report.t_values();
    best.t_fnv1a = bench::fnv1a_hex(t.data(), t.size() * sizeof(double));
  }
  return best;
}

}  // namespace

int main() {
  const auto setup = bench::BenchSetup::from_env();

  // --- compiled-kernel probe: raw campaign throughput, no model ----------
  // A combinational AES S-box layer isolates the sim->power->moments loop:
  // compile once (reported as compile_ms), then run the fixed-vs-random
  // campaign over the shared plan. This is the kernel number the perf
  // trajectory (BENCH_fig4_tvla.json) tracks across PRs.
  {
    const auto sbox = circuits::make_aes_sbox_layer(4);
    tvla::TvlaConfig config;
    config.traces = setup.traces;
    config.seed = setup.seed;
    config.noise_std_fj = 1.0;
    config.threads = setup.threads;

    util::Timer compile_timer;
    const auto compiled = sim::compile(sbox);
    const double compile_ms = compile_timer.seconds() * 1e3;
    util::Timer kernel_timer;
    const auto report = tvla::run(
        {.compiled = compiled, .lib = &setup.lib, .config = config});
    const double kernel_seconds = kernel_timer.seconds();
    // The width this combinational campaign ran at, and the kernel path
    // that width resolves to under the current SIMD policy.
    const std::size_t lane_words = sim::kDefaultLaneWords;
    const auto runtime = obs::runtime_info();
    const auto& sbox_t = report.t_values();
    const std::string sbox_hash =
        bench::fnv1a_hex(sbox_t.data(), sbox_t.size() * sizeof(double));
    std::printf("kernel probe: aes_sbox x4 (%zu gates) compiled in %.2fms "
                "(%zu buf/not runs fused), %zu traces in %.3fs "
                "(%zu-word blocks, %s), %zu leaky, t-series fnv1a %s\n\n",
                sbox.gate_count(), compile_ms, compiled->fused_run_count(),
                setup.traces, kernel_seconds, lane_words,
                sim::simd_name(lane_words), report.leaky_count(),
                sbox_hash.c_str());
    bench::JsonLine("fig4_tvla_kernel")
        .field("design", "aes_sbox")
        .field("gates", sbox.gate_count())
        .field("traces", setup.traces)
        .field("threads", engine::ThreadPool::resolve_threads(config.threads))
        .field("lane_words", lane_words)
        .field("simd", sim::simd_name(lane_words))
        .field("fused_runs", compiled->fused_run_count())
        .field("compile_ms", compile_ms)
        .field("campaign_seconds", kernel_seconds)
        .field("traces_per_sec",
               kernel_seconds > 0.0
                   ? static_cast<double>(setup.traces) / kernel_seconds
                   : 0.0,
               1)
        .field("t_fnv1a", sbox_hash)
        .field("nproc", std::thread::hardware_concurrency())
        .field("cpu", bench::cpu_model())
        .field("build_type", runtime.build_type)
        .print();
    // --- adaptive probe: early-stop budget vs the fixed budget -----------
    // Same campaign with TvlaBudget enabled (floor = traces/32, default
    // margin). Records how many traces the checkpointed verdict saves while
    // the design-level TVLA verdict (leaky yes/no) matches the full run's -
    // the per-gate t series at the stop point is a partial view by design.
    {
      const auto full_verdict = report.leaky_count() > 0;
      tvla::TvlaConfig adaptive = config;
      adaptive.budget.enabled = true;
      adaptive.budget.min_traces = std::max<std::size_t>(64, setup.traces / 32);
      util::Timer adaptive_timer;
      const auto early = tvla::run(
          {.compiled = compiled, .lib = &setup.lib, .config = adaptive});
      const double adaptive_seconds = adaptive_timer.seconds();
      const std::size_t used =
          early.early_stopped() ? early.traces_used() : setup.traces;
      const bool early_verdict = early.leaky_count() > 0;
      const double saved_percent =
          100.0 * (1.0 - static_cast<double>(used) /
                             static_cast<double>(setup.traces));
      std::printf("adaptive probe: budget floor %zu, stopped=%s at %zu/%zu "
                  "traces (%.1f%% saved, %.3fs vs %.3fs), verdict %s vs %s\n\n",
                  adaptive.budget.min_traces,
                  early.early_stopped() ? "yes" : "no", used, setup.traces,
                  saved_percent, adaptive_seconds, kernel_seconds,
                  early_verdict ? "leaky" : "clean",
                  full_verdict ? "leaky" : "clean");
      bench::JsonLine("fig4_tvla_adaptive")
          .field("design", "aes_sbox")
          .field("traces", setup.traces)
          .field("min_traces", adaptive.budget.min_traces)
          .field("early_stopped", early.early_stopped() ? 1 : 0)
          .field("traces_used", used)
          .field("saved_percent", saved_percent)
          .field("verdict_equal",
                 early_verdict == full_verdict ? 1 : 0)
          .field("leaky_at_stop", early.leaky_count())
          .field("leaky_at_full", report.leaky_count())
          .field("campaign_seconds", adaptive_seconds)
          .print();
    }
    // --- plain des3 probe: the suite's heaviest single-group readout -----
    // des3 at scale 1.0 on one thread, best of three runs, host-stamped;
    // the t-series hash must match across builds and SIMD modes.
    {
      const auto des3 = circuits::get_design("des3", 1.0);
      const auto compiled_des3 = sim::compile(des3.netlist);
      tvla::TvlaConfig des3_config = config;
      des3_config.threads = 1;
      const ProbeRun run = best_of_three(compiled_des3, setup.lib, des3_config);
      const double traces_per_sec =
          run.seconds > 0.0 ? static_cast<double>(setup.traces) / run.seconds
                            : 0.0;
      std::printf("kernel probe: des3 (%zu gates), %zu traces in %.3fs on 1 "
                  "thread, t-series fnv1a %s\n\n",
                  des3.netlist.gate_count(), setup.traces, run.seconds,
                  run.t_fnv1a.c_str());
      bench::JsonLine("fig4_tvla_kernel")
          .field("design", "des3")
          .field("scale", 1.0, 2)
          .field("gates", des3.netlist.gate_count())
          .field("traces", setup.traces)
          .field("threads", std::size_t{1})
          .field("lane_words", lane_words)
          .field("simd", sim::simd_name(lane_words))
          .field("campaign_seconds", run.seconds)
          .field("traces_per_sec", traces_per_sec, 1)
          .field("t_fnv1a", run.t_fnv1a)
          .field("nproc", std::thread::hardware_concurrency())
          .field("cpu", bench::cpu_model())
          .field("build_type", runtime.build_type)
          .print();
    }
    // --- masked probe: the multi-member-group readout -------------------
    // Masked square and des3 (200 maskable gates drawn by a seeded shuffle,
    // Trichina) on one thread. Every masked composite and every reader
    // charged a demask XOR is a multi-member group, so this times the
    // readout the plain probe above never reaches. Best of three runs; the
    // t-series hash must match across builds, and each row carries the
    // host fingerprint.
    {
      for (const char* name : {"square", "des3"}) {
        const auto design = circuits::get_design(name, setup.scale);
        const auto masked = masking::apply_masking(
            design.netlist, shuffled_maskable(design.netlist, 200, 5));
        const auto compiled_masked = sim::compile(masked.design);
        const power::PowerModel power(masked.design, setup.lib);
        const power::SamplePlan plan(*compiled_masked, power);
        tvla::TvlaConfig masked_config = config;
        masked_config.threads = 1;
        const ProbeRun run =
            best_of_three(compiled_masked, setup.lib, masked_config);
        const double traces_per_sec =
            run.seconds > 0.0 ? static_cast<double>(setup.traces) / run.seconds
                              : 0.0;
        std::printf("masked probe: %s, %zu gates masked (%zu multi groups), "
                    "%zu traces in %.3fs on 1 thread, t-series fnv1a %s\n\n",
                    name, masked.masked_gates, plan.multi_group_count(),
                    setup.traces, run.seconds, run.t_fnv1a.c_str());
        bench::JsonLine("fig4_tvla_masked_kernel")
            .field("design", name)
            .field("scale", setup.scale, 2)
            .field("masked_gates", masked.masked_gates)
            .field("multi_groups", plan.multi_group_count())
            .field("traces", setup.traces)
            .field("threads", std::size_t{1})
            .field("lane_words", lane_words)
            .field("campaign_seconds", run.seconds)
            .field("traces_per_sec", traces_per_sec, 1)
            .field("t_fnv1a", run.t_fnv1a)
            .field("nproc", std::thread::hardware_concurrency())
            .field("cpu", bench::cpu_model())
            .field("build_type", runtime.build_type)
            .field("simd", runtime.simd)
            .print();
      }
    }
    // CI bench-smoke runs just the kernel probes: the full Fig. 4 flow below
    // trains a model first, which a perf-recording job does not need.
    const char* kernel_only = std::getenv("POLARIS_BENCH_KERNEL_ONLY");
    if (kernel_only != nullptr && *kernel_only != '\0' && *kernel_only != '0') {
      return 0;
    }
  }

  std::printf("=== Fig. 4: per-gate TVLA before/after POLARIS masking (des3) ===\n\n");

  const auto trained = bench::trained_polaris(
      setup.polaris_config(), circuits::training_suite(), setup.lib);
  const auto& polaris = trained.polaris;

  auto design = circuits::get_design("des3", setup.scale);
  const auto tvla_config = core::tvla_config_for(polaris.config(), design);
  util::Timer compile_timer;
  const auto compiled_des3 = sim::compile(design.netlist);
  const double des3_compile_ms = compile_timer.seconds() * 1e3;
  util::Timer campaign_timer;
  const auto before = tvla::run(
      {.compiled = compiled_des3, .lib = &setup.lib, .config = tvla_config});
  const double campaign_seconds = campaign_timer.seconds();
  const std::size_t leaky = before.leaky_count();
  std::printf("des3: %zu gates, %zu leaky before masking (|t| > %.1f)\n",
              design.netlist.gate_count(), leaky, tvla_config.threshold);

  const auto outcome = polaris.mask_design(design, setup.lib, leaky,
                                           core::InferenceMode::kModel,
                                           /*verify=*/true);
  const auto& after = *outcome.verification;
  std::printf("after masking %zu gates: %zu leaky remain\n\n",
              outcome.selected.size(), after.leaky_count());

  // ASCII profile: max |t| per bin of gate ids, before vs after.
  const std::size_t bins = 64;
  const std::size_t per_bin =
      (design.netlist.gate_count() + bins - 1) / bins;
  std::printf("per-gate |t| profile (%zu gates per column, * = before, "
              "o = after, | = 4.5 threshold):\n", per_bin);
  for (const char* which : {"before", "after"}) {
    const auto& report = (which[0] == 'b') ? before : after;
    std::printf("%-7s ", which);
    for (std::size_t b = 0; b < bins; ++b) {
      double peak = 0.0;
      for (std::size_t g = b * per_bin;
           g < std::min<std::size_t>((b + 1) * per_bin, report.group_count());
           ++g) {
        peak = std::max(peak, std::fabs(report.t_value(g)));
      }
      char mark = '.';
      if (peak > tvla_config.threshold * 2) mark = '#';
      else if (peak > tvla_config.threshold) mark = '*';
      else if (peak > tvla_config.threshold / 2) mark = '+';
      std::printf("%c", mark);
    }
    std::printf("\n");
  }

  util::CsvWriter csv({"gate", "t_before", "t_after"});
  for (netlist::GateId g = 0; g < before.group_count(); ++g) {
    if (!before.measured(g)) continue;
    csv.add_row({std::to_string(g),
                 util::format_double(before.t_value(g), 4),
                 util::format_double(after.t_value(g), 4)});
  }
  csv.write_file("fig4_tvla_des3.csv");

  std::printf("\nleakage per gate: %.3f -> %.3f (%.1f%% total reduction)\n",
              before.leakage_per_gate(), after.leakage_per_gate(),
              bench::reduction_percent(before.total_abs_t(),
                                       after.total_abs_t()));
  std::printf("raw series written to fig4_tvla_des3.csv\n");

  // Machine-readable perf record (one JSON line, greppable by future PRs):
  // wall-clock of the un-masked des3 campaign above, plus run-total obs
  // counters - tvla_traces / sched_shards contextualize the rate when a
  // future PR changes sharding or batching.
  bench::JsonLine line("fig4_tvla");
  line.field("design", "des3")
      .field("traces", setup.traces)
      .field("threads", engine::ThreadPool::resolve_threads(tvla_config.threads))
      .field("compile_ms", des3_compile_ms)
      .field("campaign_seconds", campaign_seconds)
      .field("traces_per_sec",
             campaign_seconds > 0.0
                 ? static_cast<double>(setup.traces) / campaign_seconds
                 : 0.0,
             1);
  bench::append_obs_counters(
      line, {"tvla.campaigns", "tvla.traces", "sched.shards", "pool.tasks"})
      .print();
  return 0;
}
