#include "core/cognition.hpp"

#include <algorithm>
#include <cmath>

#include "engine/scheduler.hpp"
#include "util/rng.hpp"

namespace polaris::core {

using netlist::GateId;

CognitionPlan::CognitionPlan(const circuits::Design& design,
                             const techlib::TechLibrary& lib,
                             const PolarisConfig& config,
                             engine::Scheduler& scheduler)
    : extractor_(design.netlist, graph::FeatureSpec{config.locality}),
      theta_r_(config.theta_r),
      min_leak_for_label_(config.min_leak_for_label) {
  const auto tvla_config = tvla_config_for(config, design);

  // Phase 1 - draw every iteration's S_gates up front. The selection
  // sequence only consumes the RNG (never a TVLA result), so pre-drawing is
  // equivalent to the sequential loop and frees the campaigns to run
  // concurrently. R_gates is consumed without replacement.
  std::vector<GateId> pool;
  for (GateId g = 0; g < design.netlist.gate_count(); ++g) {
    if (netlist::is_maskable(design.netlist.gate(g).type)) pool.push_back(g);
  }

  util::Xoshiro256 rng(config.seed ^ 0xc09717102baULL ^
                       (design.netlist.gate_count() << 8));
  const std::size_t mask_size = std::max<std::size_t>(1, config.mask_size);

  while (pool.size() >= mask_size && selections_.size() < config.iterations) {
    // S_gates <- random(Msize, R): partial Fisher-Yates from the back.
    std::vector<GateId> selected;
    selected.reserve(mask_size);
    for (std::size_t i = 0; i < mask_size; ++i) {
      const std::size_t j = rng.bounded(pool.size());
      selected.push_back(pool[j]);
      pool[j] = pool.back();
      pool.pop_back();
    }
    selections_.push_back(std::move(selected));
  }

  // Phase 2 - submit the original design's leak_estimate plus one campaign
  // per iteration into the global shard queue; they interleave with every
  // other pending campaign. Each campaign compiles its design once
  // (sim::CompiledDesign) and shares the plan across all of its shards, so
  // a labelling sweep runs one topological_order per masked variant instead
  // of one per shard. The masked variants must outlive their campaigns, so
  // they are materialized here (reserve: the netlists' addresses are
  // captured by the shard closures and must not move). Peak memory is
  // therefore designs x iterations masked netlists (plus their compiled
  // plans) held through the drain - a few MB for the built-in training
  // suites (<1k-gate designs); if training suites ever grow to large
  // netlists, the seam is a submit overload that lets each campaign own
  // (and lazily build) its input.
  timer_.reset();
  original_ = tvla::submit(scheduler, {.design = &design.netlist,
                                       .lib = &lib,
                                       .config = tvla_config});
  modified_.reserve(selections_.size());
  modified_reports_.reserve(selections_.size());
  for (const auto& selection : selections_) {
    modified_.push_back(
        masking::apply_masking(design.netlist, selection, config.scheme));
    modified_reports_.push_back(tvla::submit(
        scheduler, {.design = &modified_.back().design,
                    .lib = &lib,
                    .config = tvla_config}));
  }
}

CognitionStats CognitionPlan::finalize(ml::Dataset& dataset) {
  CognitionStats stats;
  stats.iterations = selections_.size();

  // Each get() runs that campaign's still-queued shards, if any, so a lone
  // finalize() never blocks on work nobody is running. Each iteration
  // keeps only its selection's |t| values, never the full report.
  const tvla::LeakageReport original = original_->get();
  std::vector<std::vector<double>> t_mod(selections_.size());
  for (std::size_t it = 0; it < selections_.size(); ++it) {
    const tvla::LeakageReport mod = modified_reports_[it].get();
    t_mod[it].reserve(selections_[it].size());
    for (const GateId g : selections_[it]) {
      t_mod[it].push_back(std::fabs(mod.t_value(g)));
    }
  }
  modified_.clear();  // the masked netlists are no longer referenced
  stats.leak_estimate_seconds = timer_.seconds();

  // Phase 3 - label in iteration order (deterministic dataset layout).
  for (std::size_t it = 0; it < selections_.size(); ++it) {
    for (std::size_t s = 0; s < selections_[it].size(); ++s) {
      const GateId g = selections_[it][s];
      const double t_orig = std::fabs(original.t_value(g));
      int label = 0;
      if (t_orig >= min_leak_for_label_) {
        const double ratio = 1.0 - t_mod[it][s] / t_orig;  // compare(LG, Lmod)
        label = ratio >= theta_r_ ? 1 : 0;
      }
      dataset.add(extractor_.extract(g), label);
      ++stats.samples;
      stats.positives += static_cast<std::size_t>(label);
    }
  }
  return stats;
}

}  // namespace polaris::core
