// POLARIS tool configuration (paper contribution 3: "Implemented the
// POLARIS framework as a parameterized tool").
//
// The key parameters mirror Sec. V-A: Msize = 200, L = 7, itr = 100,
// theta_r = 0.70, AdaBoost as the default model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "circuits/suite.hpp"
#include "masking/masking.hpp"
#include "ml/model.hpp"
#include "serialize/archive.hpp"
#include "tvla/tvla.hpp"

namespace polaris::core {

using ml::ModelKind;

struct PolarisConfig {
  // --- Algorithm 1 (Cognition Generation) ---------------------------------
  /// Msize: gates masked per random-insertion iteration.
  std::size_t mask_size = 200;
  /// L: BFS locality of the structural features.
  std::size_t locality = 7;
  /// itr: maximum random-insertion iterations per training design.
  std::size_t iterations = 100;
  /// theta_r: leakage-reduction ratio labelling a masking "good" (1).
  double theta_r = 0.70;

  // --- model ----------------------------------------------------------------
  ModelKind model = ModelKind::kAdaBoost;
  /// Learning rate for the boosted models (paper: 0.01).
  double learning_rate = 0.01;
  /// Boosting rounds / forest size.
  std::size_t model_rounds = 300;
  /// SMOTE for Random Forest, class weights for the boosted models
  /// (Sec. V-B); disabled only for ablations.
  bool handle_imbalance = true;

  // --- leakage estimation -----------------------------------------------------
  tvla::TvlaConfig tvla;
  /// Minimum |t| a gate must show pre-masking for its reduction ratio to be
  /// meaningful (below this the sample is labelled 0: nothing to fix).
  double min_leak_for_label = 2.5;

  // --- masking ---------------------------------------------------------------
  masking::Scheme scheme = masking::Scheme::kTrichina;
  /// Algorithm-2 refinement: blend each gate's score with its graph
  /// neighbors' mean score before ranking. Masked regions only suppress
  /// leakage *inside* the region (boundary demasking re-exposes crossing
  /// signals), so coherent selections dominate scattered ones; smoothing
  /// encodes that prior. 0 = off (the paper's literal per-gate ranking).
  double coherence_smoothing = 0.5;

  std::uint64_t seed = 1;

  /// Worker threads for the whole flow: Algorithm 1 runs its labelling
  /// campaigns concurrently, every TVLA campaign shards its trace budget,
  /// the model fit scans a tree node's candidate features on this many
  /// lanes (make_model passes it, resolved, as the model's `lanes`),
  /// and score_gates extracts and scores gates on this many lanes.
  /// When nonzero this overrides `tvla.threads` via tvla_config_for; 0
  /// (auto) leaves an explicit `tvla.threads` alone. 0 = all hardware
  /// threads, 1 = fully serial. Results are independent of it.
  std::size_t threads = 0;
};

/// Validates every knob once, up front (reused by Polaris's constructor and
/// the CLI's flag parsing). Throws std::invalid_argument with an actionable
/// message naming each out-of-range knob and its accepted range.
void validate(const PolarisConfig& config);

/// Archive bindings (the CONF chunk of a .plb bundle). Round-trips every
/// knob bit-exactly, so a loaded bundle reproduces score_gates verbatim.
void write_config(serialize::Writer& out, const PolarisConfig& config);
[[nodiscard]] PolarisConfig read_config(serialize::Reader& in);

/// FNV-1a hash over the canonical serialization with the host-local
/// `threads` knobs zeroed - identical fingerprints guarantee identical
/// results, regardless of where or how parallel the run was.
[[nodiscard]] std::uint64_t config_fingerprint(const PolarisConfig& config);

/// A design's content identity: the length-prefixed name, the input roles
/// (u8 each), and the netlist's exact archive bytes (netlist::write_netlist:
/// net names, gates in id order with their group ids, and the port lists).
/// design_fingerprint hashes it, and a DSGQ request ships it.
void write_design(serialize::Writer& out, const circuits::Design& design);
[[nodiscard]] circuits::Design read_design(serialize::Reader& in);

/// FNV-1a hash over write_design's bytes. Shard workers key installed
/// designs on it and check it after decode, so a design that arrives
/// mangled is never filed under another's key. An in-process key only: it
/// is never persisted, so a change to the netlist codec may change it.
[[nodiscard]] std::uint64_t design_fingerprint(const circuits::Design& design);

/// The configured model: `config.model`'s hyper-parameters set from the
/// flow's knobs, fitting on `config.threads` lanes (resolved).
[[nodiscard]] std::unique_ptr<ml::Model> make_model(
    const PolarisConfig& config);

/// Maps the suite's input roles onto the TVLA protocol classes.
[[nodiscard]] std::vector<tvla::InputClass> input_classes_for(
    const circuits::Design& design);

/// TVLA config for a specific design: copies the template and fills the
/// per-input classes from the design's roles.
[[nodiscard]] tvla::TvlaConfig tvla_config_for(const PolarisConfig& config,
                                               const circuits::Design& design);

}  // namespace polaris::core
