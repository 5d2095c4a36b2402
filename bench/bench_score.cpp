// Inference, explanation and Verilog emission timing at the paper
// configuration, per lane count.
//
// For PolarisConfig::threads = 1 and 3 it trains once at the paper
// configuration of bench_common.hpp (the same as perfbench's: Msize 60,
// L = 7, 100 iterations, 8192 traces, AdaBoost 300 rounds, seed 1) and
// prints one JSON line per measurement:
//   * "score": score_gates over the 11-design evaluation suite, per
//     InferenceMode, with an FNV-1a hash of every score's bits;
//   * "rules": extract_rules (TreeSHAP + rule mining) on the trained model
//     and data with Polaris::train's rule config, min and median of kReps
//     runs, with a hash of the trained RuleSet's write_ruleset bytes; the
//     bench fails if a re-mined set hashes differently;
//   * "verilog": to_verilog over the suite as mask_design (Msize 200,
//     model scores) masks it, with a hash of the text;
//   * "lane_probe": a spin job on the shared pool with as many lanes,
//     reporting how many distinct threads and CPUs (sched_getcpu) ran it. A
//     lane speedup counts as evidence only when the lanes ran on distinct
//     CPUs.
// Then it trains the other model kinds (GBDT, forest, single tree) at 1
// lane and prints one "score" line each for the kModel mode: score_gates
// keys the rows of the boosted models and walks every row of the forest
// and the single tree (DESIGN.md "When to memoize"), so the "score" lines
// cover both sides of that choice.
// The hashes must not depend on the lane count, and must match the parent
// commit: the file uses only public API, so it builds against older
// sources for a same-host before/after comparison. The last line is the
// host fingerprint. Not gated: absolute times vary by host.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/thread_pool.hpp"
#include "graph/features.hpp"
#include "netlist/verilog.hpp"
#include "serialize/archive.hpp"
#include "serialize/model_io.hpp"
#include "xai/rules.hpp"

using namespace polaris;

namespace {

constexpr std::size_t kReps = 5;
constexpr std::size_t kMaskSize = 200;  // perfbench train_mask's Msize

struct Timing {
  double min_ms = 0.0;
  double median_ms = 0.0;
};

/// Runs `body` kReps times; min and median wall time.
template <class Body>
Timing time_reps(Body&& body) {
  std::vector<double> ms;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::Timer timer;
    body();
    ms.push_back(timer.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2]};
}

const char* mode_name(core::InferenceMode mode) {
  switch (mode) {
    case core::InferenceMode::kModel: return "model";
    case core::InferenceMode::kRules: return "rules";
    case core::InferenceMode::kModelPlusRules: return "model+rules";
  }
  return "?";
}

/// Times score_gates over `suite` in `mode` and prints one "score" line.
void score_line(const core::Polaris& polaris,
                const std::vector<circuits::Design>& suite,
                std::size_t maskable, core::InferenceMode mode) {
  std::uint64_t hash = util::kFnv1aOffset;
  const Timing timing = time_reps([&] {
    hash = util::kFnv1aOffset;
    for (const auto& design : suite) {
      const auto scores = polaris.score_gates(design, mode);
      hash = util::fnv1a(scores.data(), scores.size() * sizeof(double), hash);
    }
  });
  bench::JsonLine("score")
      .field("model", polaris.model().name())
      .field("lanes", polaris.config().threads)
      .field("mode", mode_name(mode))
      .field("gates", maskable)
      .field("reps", kReps)
      .field("min_ms", timing.min_ms, 1)
      .field("median_ms", timing.median_ms, 1)
      .field("scores_fnv1a", bench::hex64(hash))
      .print();
}

std::string ruleset_hash(const xai::RuleSet& rules) {
  serialize::Writer out;
  serialize::write_ruleset(out, rules);
  return bench::hex64(util::fnv1a(out.bytes()));
}

/// Times extract_rules as Polaris::train calls it (literals over the binary
/// structural features only) and prints one "rules" line. False when a
/// re-mined set differs from the trained one.
bool rules_line(const core::Polaris& polaris, std::size_t rows) {
  const graph::FeatureSpec spec{polaris.config().locality};
  xai::RuleExtractionConfig rule_config;
  rule_config.allowed_features.assign(spec.dim(), true);
  for (std::size_t f = spec.dim() - spec.scalar_dims(); f < spec.dim(); ++f) {
    rule_config.allowed_features[f] = false;
  }
  xai::RuleSet mined;
  const Timing timing = time_reps([&] {
    mined = xai::extract_rules(polaris.model(), polaris.training_data(),
                               rule_config);
  });
  const std::string trained = ruleset_hash(polaris.rules());
  const bool same = ruleset_hash(mined) == trained;
  bench::JsonLine("rules")
      .field("lanes", polaris.config().threads)
      .field("rows", rows)
      .field("rules", polaris.rules().rules().size())
      .field("reps", kReps)
      .field("min_ms", timing.min_ms, 1)
      .field("median_ms", timing.median_ms, 1)
      .field("rules_fnv1a", trained)
      .print();
  if (!same) {
    std::fprintf(stderr, "bench_score: re-mined rules differ from the "
                         "trained RuleSet\n");
  }
  return same;
}

/// Spins `lanes` pool lanes at once and counts the distinct threads and
/// CPUs they ran on.
void lane_probe(std::size_t lanes) {
  std::vector<std::thread::id> threads(lanes);
  std::vector<int> cpus(lanes, -1);
  std::atomic<std::uint64_t> sink{0};
  util::Timer timer;
  engine::ThreadPool::shared().parallel_for(lanes, lanes, [&](std::size_t i) {
    std::uint64_t x = i + 1;
    for (std::size_t k = 0; k < 20'000'000; ++k) {
      x = x * 6364136223846793005ULL + 1;
    }
    sink += x;
    threads[i] = std::this_thread::get_id();
    cpus[i] = sched_getcpu();
  });
  const double ms = timer.seconds() * 1e3;
  bench::JsonLine("lane_probe")
      .field("lanes", lanes)
      .field("lane_threads",
             std::set<std::thread::id>(threads.begin(), threads.end()).size())
      .field("lane_cpus", std::set<int>(cpus.begin(), cpus.end()).size())
      .field("probe_ms", ms, 1)
      .field("sink", sink.load() & 1)
      .print();
}

}  // namespace

int main() {
  bool ok = true;
  const auto setup = bench::BenchSetup::from_env();
  const auto training = circuits::training_suite();
  const auto suite = circuits::evaluation_suite(setup.scale);
  std::size_t maskable = 0;
  for (const auto& design : suite) {
    for (netlist::GateId g = 0; g < design.netlist.gate_count(); ++g) {
      maskable += netlist::is_maskable(design.netlist.gate(g).type) ? 1 : 0;
    }
  }

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    auto config = setup.polaris_config();
    config.threads = lanes;
    core::Polaris polaris(config);
    const auto summary = polaris.train(training, setup.lib);

    for (const auto mode :
         {core::InferenceMode::kModel, core::InferenceMode::kRules,
          core::InferenceMode::kModelPlusRules}) {
      score_line(polaris, suite, maskable, mode);
    }

    ok = rules_line(polaris, summary.samples) && ok;

    std::vector<netlist::Netlist> masked;
    for (const auto& design : suite) {
      masked.push_back(
          polaris.mask_design(design, setup.lib, kMaskSize).masked);
    }
    std::uint64_t hash = util::kFnv1aOffset;
    std::size_t bytes = 0;
    const Timing timing = time_reps([&] {
      hash = util::kFnv1aOffset;
      bytes = 0;
      for (const auto& nl : masked) {
        const std::string text = netlist::to_verilog(nl);
        hash = util::fnv1a(text, hash);
        bytes += text.size();
      }
    });
    bench::JsonLine("verilog")
        .field("lanes", lanes)
        .field("bytes", bytes)
        .field("reps", kReps)
        .field("min_ms", timing.min_ms, 1)
        .field("median_ms", timing.median_ms, 1)
        .field("verilog_fnv1a", bench::hex64(hash))
        .print();

    lane_probe(lanes);
  }

  for (const auto kind : {core::ModelKind::kXgboost,
                          core::ModelKind::kRandomForest,
                          core::ModelKind::kDecisionTree}) {
    auto config = setup.polaris_config();
    config.threads = 1;
    config.model = kind;
    core::Polaris polaris(config);
    (void)polaris.train(training, setup.lib);
    score_line(polaris, suite, maskable, core::InferenceMode::kModel);
  }

  const auto runtime = obs::runtime_info();
  bench::JsonLine("score_host")
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu", bench::cpu_model())
      .field("build_type", runtime.build_type)
      .field("simd", runtime.simd)
      .field("lane_words", runtime.lane_words)
      .print();
  return ok ? 0 : 1;
}
