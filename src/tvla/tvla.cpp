#include "tvla/tvla.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "engine/scheduler.hpp"
#include "engine/shard_plan.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "power/sample_plan.hpp"
#include "sim/compiled.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace polaris::tvla {

using netlist::GateId;
using netlist::NetId;

LeakageReport::LeakageReport(std::vector<double> t_per_group,
                             std::vector<bool> measured, double threshold)
    : t_per_group_(std::move(t_per_group)),
      measured_(std::move(measured)),
      threshold_(threshold) {}

std::size_t LeakageReport::measured_count() const {
  return static_cast<std::size_t>(
      std::count(measured_.begin(), measured_.end(), true));
}

std::vector<GateId> LeakageReport::leaky_groups() const {
  std::vector<GateId> leaky;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g] && std::abs(t_per_group_[g]) > threshold_) leaky.push_back(g);
  }
  std::sort(leaky.begin(), leaky.end(), [this](GateId a, GateId b) {
    return std::abs(t_per_group_[a]) > std::abs(t_per_group_[b]);
  });
  return leaky;
}

std::size_t LeakageReport::leaky_count() const {
  std::size_t count = 0;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g] && std::abs(t_per_group_[g]) > threshold_) ++count;
  }
  return count;
}

double LeakageReport::total_abs_t() const {
  double total = 0.0;
  for (GateId g = 0; g < t_per_group_.size(); ++g) {
    if (measured_[g]) total += std::abs(t_per_group_[g]);
  }
  return total;
}

double LeakageReport::leakage_per_gate() const {
  const std::size_t n = measured_count();
  return n == 0 ? 0.0 : total_abs_t() / static_cast<double>(n);
}

namespace {

// Stream tags for engine::stream_seed: every random quantity a batch
// consumes is keyed by (campaign seed, batch index, tag), making batches
// independent of execution order and shard placement (see DESIGN.md).
constexpr std::uint64_t kTagStimulus = 0x5354494d554c5553ULL;  // "STIMULUS"
constexpr std::uint64_t kTagClassMask = 0x434c415353ULL;  // "CLASS"
constexpr std::uint64_t kTagMaskShares = 0x52414e44ULL;  // kRand cells

std::vector<bool> derive_fixed_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (rng() & 1ULL) != 0;
  return bits;
}

}  // namespace

/// Thin protocol layer: owns the campaign-wide, read-only context (the
/// compiled design plan, power model, sampling plan, fixed vector) and
/// defines how one shard of traces is stimulated and sampled. The design
/// is compiled ONCE per campaign - by the ShardRunner constructor, or by
/// the caller that passes CampaignSpec::compiled; a batch of audits
/// compiles serially on the submitting thread, inside tvla::submit - and
/// every shard's Simulator shares the plan, so per-shard setup never
/// re-runs topological_order() or rebuilds a schedule. Placement and
/// merging belong to engine::Scheduler; all mutable per-shard state lives
/// in ShardState for the length of one run_shard call.
struct ShardRunner::Impl {
  Impl(sim::CompiledDesignPtr compiled, const techlib::TechLibrary& lib,
       const TvlaConfig& config)
      : design_(compiled->design()),
        config_(config),
        compiled_(std::move(compiled)),
        power_(design_, lib),
        plan_(*compiled_, power_),
        single_slots_(compiled_->slot_count(), 0) {
    for (const power::SamplePlan::SingleOp& op : plan_.singles()) {
      single_slots_[op.toggle_slot] = 1;
    }
    const std::size_t n_inputs = design_.primary_inputs().size();
    fixed_ = config.fixed_input.empty()
                 ? derive_fixed_vector(n_inputs, config.seed ^ 0xf1e1dcafeULL)
                 : config.fixed_input;
    if (fixed_.size() != n_inputs) {
      throw std::invalid_argument("TVLA fixed vector size mismatch");
    }
    if (!config.input_class.empty() && config.input_class.size() != n_inputs) {
      throw std::invalid_argument("TVLA input_class size mismatch");
    }
    if (config.lane_words != 0 && !sim::valid_lane_words(config.lane_words)) {
      throw std::invalid_argument("TvlaConfig.lane_words must be 0, 1, or 4");
    }
    sequential_ = design_has_dff();
    if (sequential_ && config.cycles_per_batch == 0) {
      throw std::invalid_argument(
          "TvlaConfig.cycles_per_batch must be positive for a sequential "
          "design");
    }
    if (config.budget.enabled && config.budget.min_traces == 0) {
      throw std::invalid_argument(
          "TvlaBudget.min_traces must be positive when enabled");
    }
    // Sequential campaigns stay at one word per pass: a K-batch lockstep
    // would push samples cycle-major across batches instead of the
    // batch-major order the moment accumulators saw pre-blocking, breaking
    // float bit-identity. The Simulator itself supports K > 1 on
    // sequential designs (oracle-tested); only the campaign protocol pins
    // the width.
    lane_words_ = sequential_ ? 1
                              : (config.lane_words != 0
                                     ? config.lane_words
                                     : sim::kDefaultLaneWords);
    shards_ = engine::ShardPlan::make(batch_count());
    if (config_.budget.enabled) build_checkpoint_schedule();

    // Telemetry only (never serialized, never fingerprinted): campaign
    // count/trace budget counters, and an async trace span that follows
    // the campaign across whichever threads run its shards. The span
    // closes in finalize().
    static auto& campaigns =
        obs::Registry::global().counter("tvla.campaigns");
    static auto& traces = obs::Registry::global().counter("tvla.traces");
    campaigns.add();
    traces.add(config_.traces);
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      trace_id_ = obs::Tracer::next_async_id();
      obs::TraceArgs args;
      args.add("gates", static_cast<std::uint64_t>(design_.gate_count()))
          .add("traces", static_cast<std::uint64_t>(config_.traces))
          .add("lane_words", static_cast<std::uint64_t>(lane_words_))
          .add("simd", sim::simd_name(lane_words_))
          .add("sequential", sequential_);
      tracer.async_begin("campaign", "tvla", trace_id_, std::move(args).str());
    }
  }

  /// Traces one batch contributes (sequential designs pack
  /// 64 * cycles_per_batch samples per batch).
  [[nodiscard]] std::size_t samples_per_batch() const {
    return sequential_ ? sim::kLanes * config_.cycles_per_batch : sim::kLanes;
  }

  /// Trace budget in whole 64-lane batches.
  [[nodiscard]] std::size_t batch_count() const {
    const std::size_t per_batch = samples_per_batch();
    return config_.traces == 0
               ? 0
               : (config_.traces + per_batch - 1) / per_batch;
  }

  /// Scheduler priority: a proxy for the campaign's simulation cost, so the
  /// global queue drains heavier campaigns first (LPT order).
  [[nodiscard]] std::size_t cost_weight() const {
    const std::size_t cycles = sequential_ ? config_.cycles_per_batch : 1;
    return batch_count() * cycles * std::max<std::size_t>(1, design_.gate_count());
  }

  /// Runs shard `shard` of the campaign's ShardPlan into a fresh moments
  /// block: blocks of up to lane_words_ batches, re-anchored at the shard
  /// begin, so the result is the shard state any scheduler, thread count,
  /// or host produces. The simulator, toggle counts and readout scratch
  /// die with the call; only the moments travel on to the merge.
  [[nodiscard]] CampaignMoments run_shard(std::size_t shard) const {
    ShardState state{
        sim::Simulator(compiled_, /*seed=*/0, lane_words_),
        std::vector<util::Xoshiro256>(lane_words_, util::Xoshiro256(0)),
        std::vector<std::uint64_t>(lane_words_, 0),
        std::vector<std::uint64_t>(lane_words_, 0),
        std::vector<sim::ToggleCount>(compiled_->slot_count()),
        empty_moments(),
        std::vector<double>(power::SamplePlan::kScratchDoubles, 0.0)};
    const std::size_t end = shards_.end(shard);
    for (std::size_t b = shards_.begin(shard); b < end; b += lane_words_) {
      run_block(state, b, std::min(lane_words_, end - b));
    }
    flush_singles(state);
    return std::move(state.moments);
  }

  /// A zeroed moments block with the campaign's group layout.
  [[nodiscard]] CampaignMoments empty_moments() const {
    return CampaignMoments(plan_.group_count(), plan_.multi_group_count());
  }

  /// Everything one shard mutates: its own K-word simulator, one
  /// per-batch stimulus stream, class mask and sampled-lane mask per lane
  /// word, the toggle counts of the single groups' slots
  /// (sim::ToggleCounter, indexed by slot), the mergeable statistics, and
  /// one tile of multi-group lane sums (the fused power accumulation - no
  /// per-lane power vector is ever materialized).
  struct ShardState {
    sim::Simulator simulator;
    std::vector<util::Xoshiro256> stimulus;   // one stream per lane word
    std::vector<std::uint64_t> class_masks;   // per-word fixed-class mask
    std::vector<std::uint64_t> active_masks;  // ~0 sampled, 0 tail word
    std::vector<sim::ToggleCount> counts;     // per slot, for the shard
    CampaignMoments moments;
    std::vector<double> scratch;  // power::SamplePlan::kScratchDoubles
  };

  /// The counting eval's view of a shard: its counts and masks, and the
  /// campaign's single-group slots as the only slots to count.
  [[nodiscard]] sim::ToggleCounter counter(ShardState& state) const {
    return {state.counts.data(), single_slots_.data(),
            state.class_masks.data(), state.active_masks.data()};
  }

  /// Fixed trace milestones (min_traces, 2x, 4x, ... strictly below the
  /// full budget), each rounded UP to the next shard boundary of the same
  /// ShardPlan the execution uses - a pure function of the batch count and
  /// the budget floor, so the schedule (and with it every stop decision)
  /// is independent of threads and lane_words.
  void build_checkpoint_schedule() {
    if (shards_.shard_count <= 1) return;
    const std::size_t per_batch = samples_per_batch();
    const std::size_t total = shards_.total_batches * per_batch;
    std::size_t target = config_.budget.min_traces;
    for (std::size_t s = 1; s < shards_.shard_count && target < total; ++s) {
      const std::size_t covered = shards_.end(s - 1) * per_batch;
      if (covered < target) continue;
      checkpoint_shards_.push_back(s);
      // Advance to the smallest power-of-two multiple of the floor that
      // this prefix does NOT already cover.
      while (target <= covered && target < total) {
        target = target > total / 2 ? total : target * 2;
      }
    }
  }

  /// The two-sided decision rule, evaluated on the merged shard prefix at
  /// one milestone (see TvlaBudget). Returns true to stop the campaign.
  bool evaluate_checkpoint(const CampaignMoments& moments,
                           std::size_t shards_merged) {
    static auto& checkpoint_us =
        obs::Registry::global().histogram("tvla.checkpoint_us");
    obs::Span span("checkpoint", "tvla");
    const std::int64_t t0 = obs::now_ns();
    const std::size_t traces_done =
        shards_.end(shards_merged - 1) * samples_per_batch();
    const std::size_t total = shards_.total_batches * samples_per_batch();
    std::vector<double> t;
    std::vector<bool> measured;
    compute_t(moments, t, measured);
    const double projection =
        std::sqrt(static_cast<double>(total) / static_cast<double>(traces_done));
    const double margin = config_.budget.margin;
    // Asymmetric campaign verdict (see TvlaBudget): one confidently leaky
    // group fails the design outright, while a clean verdict must rule out
    // every measured group.
    bool any_leaky = false;
    bool all_clean = true;
    for (GateId grp = 0; grp < t.size(); ++grp) {
      if (!measured[grp]) continue;
      const double abs_t = std::abs(t[grp]);
      if (abs_t > config_.threshold + margin) {
        any_leaky = true;
        break;
      }
      if (!(abs_t * projection < config_.threshold - margin)) {
        all_clean = false;
      }
    }
    const bool all_decided = any_leaky || all_clean;
    if (progress_) {
      LeakageReport partial(std::move(t), std::move(measured),
                            config_.threshold);
      partial.set_trace_usage(traces_done, false);
      progress_(partial, traces_done);
    }
    if (all_decided) {
      stopped_ = true;
      traces_used_ = traces_done;
    }
    span.arg("traces", static_cast<std::uint64_t>(traces_done))
        .arg("stop", static_cast<std::uint64_t>(all_decided ? 1 : 0));
    checkpoint_us.record(
        static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
    return all_decided;
  }

  [[nodiscard]] bool design_has_dff() const {
    for (const auto& gate : design_.gates()) {
      if (gate.type == netlist::CellType::kDff) return true;
    }
    return false;
  }

  [[nodiscard]] InputClass input_class(std::size_t pi_index) const {
    return config_.input_class.empty() ? InputClass::kSensitive
                                       : config_.input_class[pi_index];
  }

  /// Pre-transition state: every trace starts from a fresh random vector on
  /// data-like inputs; fixed-common inputs (the key) hold their fixed value
  /// even between traces, as a loaded key register would. Inputs outer,
  /// lane words inner: each word's stimulus stream draws in the same
  /// input-ascending order the one-word path used.
  void apply_base_inputs(ShardState& state, std::size_t words) const {
    const auto& inputs = design_.primary_inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (input_class(i) == InputClass::kFixedCommon) {
        const std::uint64_t word = fixed_[i] ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < words; ++w) {
          state.simulator.set_input_word(i, w, word);
        }
      } else {
        for (std::size_t w = 0; w < words; ++w) {
          state.simulator.set_input_word(i, w, state.stimulus[w]());
        }
      }
    }
  }

  void apply_target_inputs(ShardState& state, std::size_t words) const {
    const auto& inputs = design_.primary_inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t fixed = fixed_[i] ? ~0ULL : 0ULL;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t fixed_mask = state.class_masks[w];
        std::uint64_t word = 0;
        switch (input_class(i)) {
          case InputClass::kSensitive:
            word = (fixed & fixed_mask) | (state.stimulus[w]() & ~fixed_mask);
            break;
          case InputClass::kFixedCommon:
            word = fixed;
            break;
          case InputClass::kRandomCommon:
            word = state.stimulus[w]();
            break;
        }
        state.simulator.set_input_word(i, w, word);
      }
    }
  }

  /// One lane block of `words` consecutive batches, each fully keyed by
  /// its global index: lane word w carries batch batch_begin + w, with
  /// stimulus stream, class mask, and mask-share randomness all derived
  /// from (seed, batch_begin + w) - exactly the streams that batch
  /// consumed when it ran alone, so any block width, shard, or thread
  /// reproduces it bit-identically. Tail blocks (words < lane_words_)
  /// evaluate the full simulator width but only seed and sample the
  /// leading `words` lane words: the tail words' class and sampled-lane
  /// masks are zero, so the counting eval adds nothing for them.
  void run_block(ShardState& state, std::size_t batch_begin,
                 std::size_t words) const {
    // One relaxed add per lane block (~64*words traces), NOT per trace:
    // live throughput (traces/s via interval deltas) at the documented
    // shard/block instrumentation granularity, never the kernel loop.
    static auto& traces_run =
        obs::Registry::global().counter("tvla.traces_run");
    traces_run.add(static_cast<std::uint64_t>(words) * samples_per_batch());
    for (std::size_t w = 0; w < words; ++w) {
      const auto index = static_cast<std::uint64_t>(batch_begin + w);
      state.stimulus[w] = util::Xoshiro256(
          engine::stream_seed(config_.seed, index, kTagStimulus));
      state.class_masks[w] =
          engine::stream_seed(config_.seed, index, kTagClassMask);
      state.active_masks[w] = ~0ULL;
    }
    for (std::size_t w = words; w < lane_words_; ++w) {
      state.class_masks[w] = 0;
      state.active_masks[w] = 0;
    }

    if (sequential_) {  // lane_words_ == 1: one batch per block
      state.simulator.reset(
          engine::stream_seed(config_.seed, batch_begin, kTagMaskShares));
      for (std::size_t cycle = 0;
           cycle < config_.warmup_cycles + config_.cycles_per_batch; ++cycle) {
        apply_target_inputs(state, words);
        if (cycle >= config_.warmup_cycles) {
          state.simulator.eval_counting(counter(state));
          sample(state, words);
        } else {
          state.simulator.eval();
        }
        state.simulator.latch();
      }
      return;
    }

    for (std::size_t w = 0; w < words; ++w) {
      state.simulator.reseed_word(
          w, engine::stream_seed(config_.seed,
                                 static_cast<std::uint64_t>(batch_begin + w),
                                 kTagMaskShares));
    }
    apply_base_inputs(state, words);
    // Base state: never sampled, so skip toggle recording - the target
    // eval recomputes every gate's toggle (base -> target) from values.
    state.simulator.eval(/*record_toggles=*/false);
    apply_target_inputs(state, words);
    state.simulator.eval_counting(counter(state));
    sample(state, words);
  }

  /// Multi-group readout of the block via the compiled sampling plan
  /// (power::SamplePlan::sample): multi groups are read out a tile at a
  /// time, each group's samples summed in ascending-GateId order and
  /// pushed word-major - the accumulation-order contract that keeps every
  /// t-stat bit-identical to the one-word path. Single groups were counted
  /// by the eval's write step; flush_singles() adds them once per shard.
  void sample(ShardState& state, std::size_t words) const {
    plan_.sample(state.simulator.toggle_words(), lane_words_, words,
                 state.class_masks.data(), state.scratch.data(),
                 state.moments);
  }

  /// Adds each single group's toggle counts, by class, into the shard's
  /// moments. Exact integers: counting at write time and adding once per
  /// shard gives the counts a per-block readout gave.
  void flush_singles(ShardState& state) const {
    for (const power::SamplePlan::SingleOp& op : plan_.singles()) {
      const sim::ToggleCount& count = state.counts[op.toggle_slot];
      state.moments.add_single_ones(op.group, count.fixed,
                                    count.total - count.fixed);
    }
  }

  /// Per-group Welch t from (possibly partial) campaign moments - the one
  /// math path both the final report and every checkpoint evaluate, so a
  /// stop decision is made on exactly the numbers the report would show.
  void compute_t(const CampaignMoments& moments, std::vector<double>& t,
                 std::vector<bool>& measured) const {
    const double noise_var = config_.noise_std_fj * config_.noise_std_fj;
    t.assign(plan_.group_count(), 0.0);
    measured = plan_.group_measured();
    for (GateId grp = 0; grp < plan_.group_count(); ++grp) {
      if (!measured[grp]) continue;
      const std::uint32_t multi = plan_.group_multi_index(grp);
      if (multi == power::SamplePlan::kNotMulti) {
        t[grp] = welch_t_binary_energy(
                     moments.n_fixed(), moments.single_ones_fixed(grp),
                     moments.n_random(), moments.single_ones_random(grp),
                     plan_.single_energy(grp), noise_var)
                     .t;
      } else {
        t[grp] = welch_t(moments.n_fixed(), moments.multi_fixed(multi),
                         moments.n_random(), moments.multi_random(multi),
                         noise_var)
                     .t;
      }
    }
  }

  LeakageReport finalize(const CampaignMoments& moments) {
    std::vector<double> t;
    std::vector<bool> measured;
    compute_t(moments, t, measured);
    if (trace_id_ != 0) {
      obs::Tracer::global().async_end("campaign", "tvla", trace_id_);
    }
    LeakageReport report(std::move(t), std::move(measured),
                         config_.threshold);
    if (config_.budget.enabled) {
      // `stopped_`/`traces_used_` were written under the campaign merge
      // lock; the finisher thread observed the last shard's decrement
      // under the scheduler mutex, which those writes happen-before.
      static auto& traces_saved =
          obs::Registry::global().counter("tvla.traces_saved");
      const std::size_t full = batch_count() * samples_per_batch();
      const std::size_t used = stopped_ ? traces_used_ : full;
      report.set_trace_usage(used, stopped_);
      traces_saved.add(full - used);
    }
    return report;
  }

  const netlist::Netlist& design_;
  TvlaConfig config_;
  sim::CompiledDesignPtr compiled_;
  power::PowerModel power_;
  power::SamplePlan plan_;
  std::vector<std::uint8_t> single_slots_;  // per slot: 1 = a single's slot
  bool sequential_ = false;
  std::size_t lane_words_ = 1;
  engine::ShardPlan shards_;  // pure function of batch_count()
  std::uint64_t trace_id_ = 0;  // async span id; 0 = tracing was off
  std::vector<bool> fixed_;
  // Early-stop state (budget-enabled campaigns only). The schedule is
  // fixed at construction; stopped_/traces_used_ are written by at most
  // one checkpoint (under the scheduler's campaign merge lock) and read
  // by finalize() after the last shard's publication.
  std::vector<std::size_t> checkpoint_shards_;  // ascending prefix counts
  ProgressFn progress_;
  bool stopped_ = false;
  std::size_t traces_used_ = 0;
};

sim::CompiledDesignPtr compile(const netlist::Netlist& design) {
  static auto& compile_us =
      obs::Registry::global().histogram("tvla.compile_us");
  obs::Span span("compile", "tvla");
  span.arg("gates", static_cast<std::uint64_t>(design.gate_count()));
  const std::int64_t t0 = obs::now_ns();
  auto compiled = sim::compile(design);
  compile_us.record(static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  return compiled;
}

CampaignHandle submit(engine::Scheduler& scheduler, CampaignSpec spec) {
  auto campaign =
      spec.compiled ? std::make_shared<ShardRunner>(std::move(spec.compiled),
                                                    *spec.lib, spec.config)
                    : std::make_shared<ShardRunner>(*spec.design, *spec.lib,
                                                    spec.config);
  ShardRunner::Impl& impl = *campaign->impl_;
  impl.progress_ = std::move(spec.progress);
  // The closures share ownership of the campaign (and its power model and
  // group layout) until the last shard finalized the report. An empty
  // checkpoint list (budget disabled, or a floor at or above the budget)
  // runs the same ascending merge without ever deciding.
  engine::Checkpoints<CampaignMoments> checkpoints{
      impl.checkpoint_shards_,
      [campaign](const CampaignMoments& merged, std::size_t shards_merged) {
        return campaign->impl_->evaluate_checkpoint(merged, shards_merged);
      }};
  return CampaignHandle(
      scheduler.submit(
          impl.shards_.shard_count,
          [campaign](std::size_t shard) { return campaign->run_shard(shard); },
          [](CampaignMoments& into, CampaignMoments&& from) {
            into.merge(from);
          },
          [campaign](CampaignMoments&& total) {
            return campaign->finalize(total);
          },
          std::move(checkpoints), impl.cost_weight(), std::move(spec.label)),
      impl.plan_.group_count(), impl.plan_.multi_group_count());
}

LeakageReport run(CampaignSpec spec) {
  engine::Scheduler scheduler(spec.config.threads);
  return submit(scheduler, std::move(spec)).get();
}

LeakageReport run_fixed_vs_random(const netlist::Netlist& design,
                                  const techlib::TechLibrary& lib,
                                  const TvlaConfig& config) {
  return run({.design = &design, .lib = &lib, .config = config});
}

// --- ShardRunner -------------------------------------------------------------

ShardRunner::ShardRunner(const netlist::Netlist& design,
                         const techlib::TechLibrary& lib,
                         const TvlaConfig& config)
    : ShardRunner(compile(design), lib, config) {}

ShardRunner::ShardRunner(sim::CompiledDesignPtr design,
                         const techlib::TechLibrary& lib,
                         const TvlaConfig& config)
    : impl_(std::make_unique<Impl>(std::move(design), lib, config)) {}

ShardRunner::~ShardRunner() = default;

std::size_t ShardRunner::shard_count() const {
  return impl_->shards_.shard_count;
}

CampaignMoments ShardRunner::run_shard(std::size_t shard) const {
  return impl_->run_shard(shard);
}

CampaignMoments ShardRunner::empty_moments() const {
  return impl_->empty_moments();
}

LeakageReport ShardRunner::finalize(const CampaignMoments& total) {
  return impl_->finalize(total);
}

}  // namespace polaris::tvla
