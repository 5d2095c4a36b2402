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
// Uses only public API, so the same file builds against older sources for a
// same-host before/after comparison. Not gated: absolute times vary by host.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "serialize/archive.hpp"

using namespace polaris;

namespace {

constexpr std::size_t kFits = 5;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\') model += c;
    }
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
  return "unknown";
}

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
      std::uint64_t hash = 0;
      for (std::size_t fit = 0; fit < kFits; ++fit) {
        auto model = core::make_model(config);
        timer.reset();
        model->fit(data);
        ms.push_back(timer.seconds() * 1e3);
        serialize::Writer out;
        ml::save_classifier(out, *model);
        hash = fnv1a(out.bytes());
      }
      std::sort(ms.begin(), ms.end());
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(hash));
      bench::JsonLine("fit")
          .field("model", core::to_string(kind))
          .field("lanes", lanes)
          .field("rows", data.size())
          .field("features", data.feature_count())
          .field("fits", kFits)
          .field("min_ms", ms.front(), 1)
          .field("median_ms", ms[ms.size() / 2], 1)
          .field("model_fnv1a", std::string_view(hex))
          .print();
    }
  }

  const auto runtime = obs::runtime_info();
  bench::JsonLine("fit_host")
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu", cpu_model())
      .field("build_type", runtime.build_type)
      .field("simd", runtime.simd)
      .field("lane_words", runtime.lane_words)
      .print();
  return 0;
}
