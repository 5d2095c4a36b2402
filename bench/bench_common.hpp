// Shared setup for the table/figure reproduction benches.
//
// Environment knobs (all optional):
//   POLARIS_BENCH_TRACES   TVLA traces per campaign   (default 8192)
//   POLARIS_BENCH_SCALE    design-size scale in [0,1] (default 1.0)
//   POLARIS_BENCH_SEED     experiment seed            (default 1)
//   POLARIS_BENCH_THREADS  worker threads for the shard-parallel trace
//                          engine: 0 = all hardware threads, 1 = serial
//                          (default 0). Results are independent of this
//                          knob; only wall-clock changes.
//   POLARIS_BENCH_BUNDLE   path to a .plb model bundle. When set and the
//                          file exists, benches that only need a trained
//                          model load it instead of re-running Algorithm 1,
//                          so perf runs measure the masking path, not
//                          training; when set but missing, the first run
//                          trains once and saves the bundle there. The
//                          caller must keep the config consistent across
//                          runs (the loaded bundle's config wins).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "obs/obs.hpp"
#include "techlib/techlib.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace polaris::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback
                          : static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtod(value, nullptr);
}

struct BenchSetup {
  std::size_t traces = 8192;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  techlib::TechLibrary lib = techlib::TechLibrary::default_library();

  static BenchSetup from_env() {
    BenchSetup setup;
    setup.traces = env_size("POLARIS_BENCH_TRACES", 8192);
    setup.scale = env_double("POLARIS_BENCH_SCALE", 1.0);
    setup.seed = env_size("POLARIS_BENCH_SEED", 1);
    setup.threads = env_size("POLARIS_BENCH_THREADS", 0);
    return setup;
  }

  /// The paper's POLARIS parameters, adapted to this trace budget. The
  /// cognition mask size is sized to the training designs (Sec. V-A uses
  /// Msize = 200 on the larger ISCAS circuits; our training circuits are
  /// 250-950 gates, so 60 keeps several iterations per design).
  [[nodiscard]] core::PolarisConfig polaris_config() const {
    core::PolarisConfig config;
    config.mask_size = 60;
    config.locality = 7;
    config.iterations = 100;
    config.theta_r = 0.70;
    config.model = core::ModelKind::kAdaBoost;
    config.learning_rate = 0.01;
    config.model_rounds = 300;
    config.tvla.traces = traces;
    config.tvla.noise_std_fj = 1.0;
    config.tvla.seed = seed;
    config.seed = seed;
    config.threads = threads;
    return config;
  }
};

/// Percentage reduction helper (guards the zero-baseline case).
inline double reduction_percent(double before, double after) {
  return util::reduction_percent(before, after);
}

/// One machine-readable perf record: a single JSON object printed as one
/// stdout line, greppable by future PRs ({"bench":...} first). Every bench
/// that reports numbers uses this instead of hand-rolled printf lines, so
/// the key quoting/ordering stays uniform across benches. Keys appear in
/// insertion order; string values must not contain quotes or backslashes
/// (bench/design names never do).
class JsonLine {
 public:
  explicit JsonLine(std::string_view bench) { field("bench", bench); }

  JsonLine& field(std::string_view key, std::string_view value) {
    open(key);
    body_ += '"';
    body_ += value;
    body_ += '"';
    return *this;
  }
  template <std::integral T>
  JsonLine& field(std::string_view key, T value) {
    open(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonLine& field(std::string_view key, double value, int decimals = 4) {
    open(key);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    body_ += buffer;
    return *this;
  }

  /// Prints `{...}\n` to stdout. The line can be emitted once.
  void print() {
    std::printf("%s}\n", body_.c_str());
    body_.clear();
  }

 private:
  void open(std::string_view key) {
    body_ += body_.empty() ? '{' : ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
  }

  std::string body_;
};

/// Appends named counters from the process-wide obs registry onto a bench
/// JSON line ('.' becomes '_' in the key, JsonLine keys being bare
/// identifiers by convention). Absent counters report 0, so a bench can
/// list metrics its configuration never touches.
inline JsonLine& append_obs_counters(JsonLine& line,
                                     std::initializer_list<const char*> names) {
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (const char* name : names) {
    std::string key(name);
    for (char& c : key) {
      if (c == '.') c = '_';
    }
    line.field(key, snapshot.counter_value(name));
  }
  return line;
}

/// A 64-bit hash as 16 hex digits.
inline std::string hex64(std::uint64_t hash) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// FNV-1a over raw bytes, as 16 hex digits: the benches' bit-identity
/// fingerprint (a model's serialized bytes, a t-series' IEEE-754 patterns).
inline std::string fnv1a_hex(const void* data, std::size_t size) {
  return hex64(util::fnv1a(data, size));
}

/// The CPU model string from /proc/cpuinfo ("unknown" where there is
/// none), with quotes and backslashes dropped so it fits a JsonLine.
inline std::string cpu_model() {
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

struct TrainedPolaris {
  core::Polaris polaris;
  bool from_bundle = false;  // loaded via POLARIS_BENCH_BUNDLE?
  double seconds = 0.0;      // wall-clock of the load or the training
};

/// A trained Polaris honoring POLARIS_BENCH_BUNDLE (see the header comment):
/// load when the bundle exists, otherwise train - and, when the variable
/// names a missing file, save the fresh model there to warm the cache.
inline TrainedPolaris trained_polaris(
    const core::PolarisConfig& config,
    std::span<const circuits::Design> training,
    const techlib::TechLibrary& lib) {
  const char* bundle = std::getenv("POLARIS_BENCH_BUNDLE");
  util::Timer timer;
  if (bundle != nullptr && *bundle != '\0' &&
      std::filesystem::exists(bundle)) {
    TrainedPolaris result{core::Polaris::load_bundle(bundle), true, 0.0};
    result.seconds = timer.seconds();
    std::printf("loaded trained bundle %s in %.2fs (POLARIS_BENCH_BUNDLE; "
                "Algorithm 1 skipped)\n\n",
                bundle, result.seconds);
    return result;
  }
  TrainedPolaris result{core::Polaris(config), false, 0.0};
  (void)result.polaris.train(training, lib);
  result.seconds = timer.seconds();
  if (bundle != nullptr && *bundle != '\0') {
    result.polaris.save_bundle(bundle);
    std::printf("saved trained bundle to %s (POLARIS_BENCH_BUNDLE; later "
                "runs skip Algorithm 1)\n",
                bundle);
  }
  return result;
}

}  // namespace polaris::bench
