// TVLA campaigns: per-gate (per-group) leakage assessment.
//
// This is the `leak_estimate(D)` primitive of Algorithms 1 and 2. For each
// logical gate group, the per-trace power sample is the summed switching
// energy of the group's member cells; Welch's t (Eq. 1) compares the fixed
// class against the random class. Gates with |t| > 4.5 are considered leaky
// (Fig. 4).
//
// Stimulus protocol: fixed-vs-random (Sec. II-A) - lanes in the fixed
// class switch from a random base vector to a fixed target vector;
// random-class lanes switch to a fresh random vector. Sequential designs
// (DFFs present) run free-running multi-cycle traces with per-cycle
// sampling instead of vector pairs.
//
// Execution: one CampaignSpec in, one CampaignHandle out - submit() queues
// it on engine::Scheduler, the one shard executor, and run() is the sync
// form. Its ShardRunner compiles the design once, with a fused toggle/
// energy sampling plan (power::SamplePlan); engine::ShardPlan splits the
// trace budget into shards, each running a thin Simulator over the shared
// plan with per-batch-keyed RNG streams into mergeable CampaignMoments,
// merged in ascending shard order. Reports are bit-identical for every
// `threads` setting and worker count (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/scheduler.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "techlib/techlib.hpp"
#include "tvla/moments.hpp"
#include "tvla/welch.hpp"

namespace polaris::tvla {

/// Role of a primary input in the TVLA protocol.
enum class InputClass : std::uint8_t {
  kSensitive,     // fixed in the fixed class, random in the random class
  kFixedCommon,   // same fixed value in BOTH classes (e.g. the key)
  kRandomCommon,  // fresh random in both classes (e.g. a nonce)
};

/// Early-stopping ("adaptive") trace budget for a campaign. Disabled by
/// default, and the disabled path is byte-identical to a build without the
/// feature: serialization and config fingerprints only change when
/// `enabled` is set.
///
/// When enabled, the campaign evaluates its merged moments at a
/// deterministic checkpoint schedule: trace milestones at min_traces,
/// 2*min_traces, 4*min_traces, ... (strictly below the full budget), each
/// rounded up to the next shard boundary of the campaign's ShardPlan - a
/// pure function of the batch count, never of `threads` or `lane_words`,
/// so stop decisions and reported t-stats are bit-reproducible across
/// every execution configuration (see DESIGN.md).
struct TvlaBudget {
  bool enabled = false;
  /// First checkpoint milestone, in traces. Must be positive when enabled;
  /// a floor at or above `traces` simply disables checkpoints (the full
  /// budget runs).
  std::size_t min_traces = 1024;
  /// Two-sided decision margin around the |t| threshold: a group is
  /// decided LEAKY when |t| > threshold + margin, decided CLEAN when its
  /// projection to the full budget stays below it,
  /// |t| * sqrt(total_traces / traces_so_far) < threshold - margin
  /// (Welch t grows like sqrt(n) for a true effect, so the projection is
  /// what the decided-clean group could at most reach).
  ///
  /// The campaign-level verdict composes the per-group rule asymmetrically,
  /// matching TVLA practice: it stops LEAKY at the first checkpoint where
  /// ANY measured group is confidently leaky (one decided excursion fails
  /// the design - later traces cannot un-fail it), but stops CLEAN only
  /// when EVERY measured group is confidently clean (a clean bill of
  /// health must cover all groups, so clean-looking designs keep their
  /// full budget unless the projection rules every group out).
  double margin = 0.5;
};

struct TvlaConfig {
  /// Total traces; rounded up to a whole number of 64-lane batches.
  std::size_t traces = 4096;
  /// Sequential designs: cycles discarded after reset, and sampled cycles
  /// per batch run.
  std::size_t warmup_cycles = 4;
  std::size_t cycles_per_batch = 32;
  double threshold = kLeakageThreshold;
  std::uint64_t seed = 1;
  /// Worker threads for trace collection: 0 = all hardware threads,
  /// 1 = fully serial. Results do not depend on this value. Note: when a
  /// campaign is driven through core::tvla_config_for, a nonzero
  /// PolarisConfig::threads overrides this field.
  std::size_t threads = 0;
  /// Per-sample additive measurement/electrical noise (std dev, fJ). Real
  /// trace acquisition never sees noise-free per-gate energies; without
  /// this floor every data-dependent gate saturates the t-test. Modelled
  /// analytically: means are unchanged, both class variances gain sigma^2.
  double noise_std_fj = 1.5;
  /// Lane-block width for the compiled kernel: 64-trace words evaluated
  /// per simulator pass (1 or 4; 0 = sim::kDefaultLaneWords, i.e. 4).
  /// Sequential campaigns always run 1 (the per-cycle sample order of a
  /// multi-batch lockstep would differ from the batch-major order; see
  /// DESIGN.md). Pure execution knob like `threads`: reports are
  /// bit-identical for every setting (the identity tests run their 1-word
  /// reference through it), and the field is never serialized nor part of
  /// config fingerprints.
  std::size_t lane_words = 0;
  /// Role of each primary input (empty = all kSensitive, the classic
  /// full-vector fixed-vs-random protocol).
  std::vector<InputClass> input_class;
  /// Fixed target vector (one bit per primary input). Empty = derived
  /// deterministically from `seed`.
  std::vector<bool> fixed_input;
  /// Unused: kept only so the CONF chunk (core::config_fields) and every
  /// config fingerprint keep their layout. Nothing reads it.
  std::vector<bool> fixed_input_b;
  /// Early-stopping trace budget (off by default; see TvlaBudget).
  TvlaBudget budget;
};

class LeakageReport {
 public:
  LeakageReport(std::vector<double> t_per_group, std::vector<bool> measured,
                double threshold);

  /// Welch t of group g (0 when unmeasured).
  [[nodiscard]] double t_value(netlist::GateId group) const {
    return t_per_group_[group];
  }
  [[nodiscard]] const std::vector<double>& t_values() const { return t_per_group_; }
  [[nodiscard]] bool measured(netlist::GateId group) const {
    return measured_[group];
  }

  [[nodiscard]] std::size_t group_count() const { return t_per_group_.size(); }
  [[nodiscard]] std::size_t measured_count() const;

  /// Groups with |t| above the threshold, sorted by descending |t|.
  [[nodiscard]] std::vector<netlist::GateId> leaky_groups() const;
  /// Number of such groups, counted in place (no allocation or sort).
  [[nodiscard]] std::size_t leaky_count() const;

  /// Sum of |t| over measured groups ("total leakage").
  [[nodiscard]] double total_abs_t() const;
  /// Mean |t| over measured groups - the paper's "Leakage Value (Per Gate)".
  [[nodiscard]] double leakage_per_gate() const;

  [[nodiscard]] double threshold() const { return threshold_; }

  /// Traces the campaign actually consumed producing this report. Only
  /// populated on budget-enabled campaigns (0 otherwise - the fixed path
  /// spends exactly the configured budget, and stays byte-identical).
  [[nodiscard]] std::size_t traces_used() const { return traces_used_; }
  /// True when an early-stop checkpoint decided the campaign before the
  /// full budget ran.
  [[nodiscard]] bool early_stopped() const { return early_stopped_; }
  void set_trace_usage(std::size_t traces_used, bool early_stopped) {
    traces_used_ = traces_used;
    early_stopped_ = early_stopped;
  }

 private:
  std::vector<double> t_per_group_;
  std::vector<bool> measured_;
  double threshold_;
  std::size_t traces_used_ = 0;
  bool early_stopped_ = false;
};

/// Checkpoint observer for budget-enabled campaigns (streaming audits):
/// called once per checkpoint in milestone order with the partial report
/// computed from the merged shard prefix and the traces it covers. Runs
/// under the campaign's merge lock on whichever thread landed the shard
/// that completed the prefix (a drain lane, or a distributed audit's
/// feeder) - never concurrently with itself for one campaign. An
/// exception thrown from the observer fails the campaign (get() rethrows
/// it). Ignored when the budget is disabled.
using ProgressFn =
    std::function<void(const LeakageReport& partial, std::size_t traces_done)>;

struct CampaignSpec;
class CampaignHandle;

/// One campaign: the compiled design, power model, sampling plan, fixed
/// vector, and checkpoint schedule. submit() builds one per campaign; the
/// shard workers (server/worker.hpp) run single shards of it. run_shard(s)
/// produces the same CampaignMoments shard s accumulates under any
/// scheduler, thread count, lane width, or host, so per-shard moments
/// merged in ascending shard order finalize into a report bit-identical to
/// run(). run_shard is const and thread-safe; finalize is single-threaded.
class ShardRunner {
 public:
  /// Compiles the design once. Throws std::invalid_argument on invalid
  /// configs. `design` and `lib` must outlive the runner.
  ShardRunner(const netlist::Netlist& design, const techlib::TechLibrary& lib,
              const TvlaConfig& config);
  /// Same, over a caller-compiled plan (its netlist must outlive the
  /// runner).
  ShardRunner(sim::CompiledDesignPtr design, const techlib::TechLibrary& lib,
              const TvlaConfig& config);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Shards in the campaign's engine::ShardPlan (a pure function of the
  /// trace budget) - the index space run_shard accepts.
  [[nodiscard]] std::size_t shard_count() const;

  /// Runs shard `shard` of the plan into a fresh moments block.
  [[nodiscard]] CampaignMoments run_shard(std::size_t shard) const;
  /// A zeroed moments block with the campaign's group layout - the merge
  /// identity, and the finalize input for zero-shard campaigns.
  [[nodiscard]] CampaignMoments empty_moments() const;

  /// Computes the final report from the merged total, including budget
  /// trace-usage when a checkpoint stopped the campaign.
  [[nodiscard]] LeakageReport finalize(const CampaignMoments& total);

 private:
  friend CampaignHandle submit(engine::Scheduler& scheduler,
                               CampaignSpec spec);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// sim::compile, timed into the `tvla.compile_us` histogram: how a
/// campaign compiles its design, and how to share one plan across many.
[[nodiscard]] sim::CompiledDesignPtr compile(const netlist::Netlist& design);

/// Everything one campaign needs. Set `design` or `compiled`; a plan wins,
/// so callers that run several campaigns on one design, or time compile
/// apart from traces, compile once. The netlist (the plan's, too) and
/// `lib` must outlive the campaign.
struct CampaignSpec {
  const netlist::Netlist* design = nullptr;
  sim::CompiledDesignPtr compiled = nullptr;
  const techlib::TechLibrary* lib = nullptr;
  TvlaConfig config = {};
  ProgressFn progress = {};  // checkpoint observer (budget-enabled configs)
  /// Names the campaign in the scheduler's progress table
  /// (engine::CampaignProgress) - telemetry, never part of the result.
  std::string label = {};
};

/// A submitted campaign (id, get, future; see engine::CampaignHandle).
/// fits() is the check a shard state from elsewhere (a remote worker's
/// reply) must pass before it is completed: the merge indexes it by the
/// campaign's group layout. On a shared scheduler a campaign nobody waits
/// on stays queued until a whole-queue drain(), so wait on every handle.
class CampaignHandle : public engine::CampaignHandle<LeakageReport> {
 public:
  CampaignHandle(engine::CampaignHandle<LeakageReport> handle,
                 std::size_t groups, std::size_t multi_groups)
      : engine::CampaignHandle<LeakageReport>(std::move(handle)),
        groups_(groups),
        multi_groups_(multi_groups) {}

  [[nodiscard]] bool fits(const CampaignMoments& moments) const {
    return moments.group_count() == groups_ &&
           moments.multi_group_count() == multi_groups_;
  }

 private:
  std::size_t groups_;
  std::size_t multi_groups_;
};

/// Queues the campaign's shards on `scheduler` beside every other pending
/// campaign's, with its checkpoint schedule and LPT weight;
/// `config.threads` is ignored. The report is bit-identical to run()'s
/// whatever the thread count, interleaving, submission order, or shard
/// placement (tests/test_scheduler.cpp). Invalid specs throw from here.
[[nodiscard]] CampaignHandle submit(engine::Scheduler& scheduler,
                                    CampaignSpec spec);

/// submit() on a private engine::Scheduler(config.threads), then get().
[[nodiscard]] LeakageReport run(CampaignSpec spec);

/// run() of a netlist spec.
[[nodiscard]] LeakageReport run_fixed_vs_random(const netlist::Netlist& design,
                                                const techlib::TechLibrary& lib,
                                                const TvlaConfig& config);

}  // namespace polaris::tvla
