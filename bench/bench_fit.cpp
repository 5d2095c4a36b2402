// Model-fit timing on the Algorithm 1 dataset, per model kind and lane count.
//
// Trains once at the paper configuration of bench_common.hpp (the same as
// perfbench's: Msize 60, L = 7, 100 iterations, 8192 traces, AdaBoost 300
// rounds, seed 1) to get the labelled, class-balanced training set, then
// fits each ModelKind five times on it at 1 lane and at 3 lanes
// (PolarisConfig::threads, which make_model passes to the model). Prints one
// JSON line per (model, lanes): min and median fit time, and an FNV-1a hash
// of the serialized model, which must not depend on the lane count. The
// last line is the host fingerprint.
//
// The hash covers the bytes a bundle's MODL chunk holds. Older sources
// wrote them through another function name, so compare against the
// parent's own copy of this file, built there. Not gated: absolute times
// vary by host.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "serialize/archive.hpp"

using namespace polaris;

namespace {

constexpr std::size_t kFits = 5;

}  // namespace

int main() {
  const auto setup = bench::BenchSetup::from_env();
  const auto training = circuits::training_suite();
  core::Polaris polaris(setup.polaris_config());
  util::Timer timer;
  (void)polaris.train(training, setup.lib);
  const ml::Dataset& data = polaris.training_data();
  std::printf("trained in %.2fs: %zu rows x %zu features\n", timer.seconds(),
              data.size(), data.feature_count());

  const core::ModelKind kinds[] = {
      core::ModelKind::kAdaBoost, core::ModelKind::kXgboost,
      core::ModelKind::kRandomForest, core::ModelKind::kDecisionTree};
  for (const auto kind : kinds) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
      auto config = setup.polaris_config();
      config.model = kind;
      config.threads = lanes;
      std::vector<double> ms;
      std::string hash;
      for (std::size_t fit = 0; fit < kFits; ++fit) {
        auto model = core::make_model(config);
        timer.reset();
        model->fit(data);
        ms.push_back(timer.seconds() * 1e3);
        serialize::Writer out;
        model->save(out);
        hash = bench::fnv1a_hex(out.bytes().data(), out.bytes().size());
      }
      std::sort(ms.begin(), ms.end());
      bench::JsonLine("fit")
          .field("model", ml::to_string(kind))
          .field("lanes", lanes)
          .field("rows", data.size())
          .field("features", data.feature_count())
          .field("fits", kFits)
          .field("min_ms", ms.front(), 1)
          .field("median_ms", ms[ms.size() / 2], 1)
          .field("model_fnv1a", hash)
          .print();
    }
  }

  const auto runtime = obs::runtime_info();
  bench::JsonLine("fit_host")
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu", bench::cpu_model())
      .field("build_type", runtime.build_type)
      .field("simd", runtime.simd)
      .field("lane_words", runtime.lane_words)
      .print();
  return 0;
}
