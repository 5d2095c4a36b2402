// Algorithm 1: Cognition Generation - the unsupervised training-data
// factory (paper contribution 2).
//
//   Gr <- graphify(D);  LG <- leak_estimate(D)
//   while Msize <= |Rgates| and run <= itr:
//     Sgates <- random(Msize, Rgates);  Dmod <- modify(Sgates, D)
//     Rgates <- Rgates - Sgates;  Lmod <- leak_estimate(Dmod)
//     for i in Sgates:
//       Sf <- structural_features(Gr, L, i)
//       label <- [compare(LG[i], Lmod[i]) >= theta_r]
//       append (Sf, label)
//
// compare() is the leakage-reduction ratio 1 - |t_mod|/|t_orig|; gates that
// were not meaningfully leaky to begin with are labelled 0 (masking them is
// wasted overhead), which matches the paper's intent of learning *where
// masking pays off*.
//
// Execution: the selection sequence only consumes the RNG (never a TVLA
// result), so every iteration's leak_estimate is an independent campaign.
// CognitionPlan submits them all - the original design's plus one per
// iteration - to a global engine::Scheduler, where they interleave with
// every other pending design's campaigns as one shard queue; finalize()
// waits on its own campaigns' handles and labels in iteration order, so
// the dataset layout (and every sample in it) is bit-identical to the
// sequential formulation.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "circuits/suite.hpp"
#include "core/config.hpp"
#include "graph/features.hpp"
#include "masking/masking.hpp"
#include "ml/dataset.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "util/timer.hpp"

namespace polaris::core {

struct CognitionStats {
  std::size_t iterations = 0;
  std::size_t samples = 0;
  std::size_t positives = 0;
  double leak_estimate_seconds = 0.0;
};

/// One design's Algorithm-1 run: the constructor draws every iteration's
/// S_gates, builds the masked variants, and submits all leak_estimate
/// campaigns; finalize() gets their reports (running any of them still
/// queued) and labels into the dataset. The caller keeps `design` and
/// `lib` alive until finalize() returns.
class CognitionPlan {
 public:
  CognitionPlan(const circuits::Design& design, const techlib::TechLibrary& lib,
                const PolarisConfig& config, engine::Scheduler& scheduler);

  /// Appends the labelled samples (iteration order) and returns the stats.
  /// leak_estimate_seconds spans submission through the last report -
  /// i.e. it includes the shared drain this plan's campaigns rode on.
  CognitionStats finalize(ml::Dataset& dataset);

 private:
  graph::FeatureExtractor extractor_;
  double theta_r_;
  double min_leak_for_label_;
  std::vector<std::vector<netlist::GateId>> selections_;
  std::vector<masking::MaskingResult> modified_;  // alive until reports land
  std::optional<tvla::CampaignHandle> original_;
  std::vector<tvla::CampaignHandle> modified_reports_;
  util::Timer timer_;
};

}  // namespace polaris::core
