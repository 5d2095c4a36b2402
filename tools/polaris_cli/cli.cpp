#include "cli.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/fileio.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace polaris::cli {

TraceGuard::TraceGuard(const std::string& path, const char* command)
    : path_(path), command_(command) {
  if (path_.empty()) return;
  obs::Tracer::global().start();
  start_ns_ = obs::now_ns();
}

TraceGuard::~TraceGuard() {
  if (path_.empty()) return;
  auto& tracer = obs::Tracer::global();
  // Root span covering the whole command, so every nested span has a
  // visible parent in Perfetto.
  tracer.complete_event(command_, "cli", start_ns_, obs::now_ns() - start_ns_,
                        std::string());
  std::size_t events = 0;
  const std::string json = tracer.stop_to_json(&events);
  try {
    util::write_file_atomic(path_, json);
    std::fprintf(stderr, "polaris: wrote trace %s (%zu events)\n",
                 path_.c_str(), events);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "polaris: cannot write trace %s: %s\n", path_.c_str(),
                 error.what());
  }
}

FlagSpec trace_flag_spec() {
  return {"trace", true,
          "write a Chrome trace-event JSON of this run (Perfetto-loadable)"};
}

ParsedFlags::ParsedFlags(std::span<const char* const> args,
                         std::span<const FlagSpec> specs) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      throw UsageError("unexpected argument '" + arg +
                       "' (flags look like --name)");
    }
    const std::string name = arg.substr(2);
    const auto spec = std::find_if(specs.begin(), specs.end(),
                                   [&](const FlagSpec& s) { return s.name == name; });
    if (spec == specs.end()) throw UsageError("unknown flag '--" + name + "'");
    if (!spec->takes_value) {
      values_.insert_or_assign(name, std::string("1"));
      continue;
    }
    if (i + 1 >= args.size()) {
      throw UsageError("flag '--" + name + "' needs a value");
    }
    values_[name] = args[++i];
  }
}

bool ParsedFlags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ParsedFlags::get(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t ParsedFlags::get_u64(const std::string& name,
                                   std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    // std::stoull accepts "-5" (wrapping to 2^64-5); reject signs up front.
    if (it->second.empty() || !std::isdigit(static_cast<unsigned char>(
                                  it->second.front()))) {
      throw std::invalid_argument(it->second);
    }
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw UsageError("flag '--" + name + "' expects a non-negative integer, "
                     "got '" + it->second + "'");
  }
}

std::size_t ParsedFlags::get_size(const std::string& name,
                                  std::size_t fallback) const {
  return static_cast<std::size_t>(get_u64(name, fallback));
}

double ParsedFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw UsageError("flag '--" + name + "' expects a number, got '" +
                     it->second + "'");
  }
}

std::string ParsedFlags::require(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw UsageError("flag '--" + name + "' is required");
  return it->second;
}

std::string render_flag_help(std::span<const FlagSpec> specs) {
  std::size_t width = 0;
  for (const auto& spec : specs) {
    width = std::max(width, spec.name.size() + (spec.takes_value ? 6 : 0));
  }
  std::ostringstream out;
  for (const auto& spec : specs) {
    const std::string left =
        "--" + spec.name + (spec.takes_value ? " <arg>" : "");
    const std::size_t pad =
        width + 6 > left.size() ? width + 6 - left.size() : 1;
    out << "  " << left << std::string(pad, ' ') << spec.help << "\n";
  }
  return out.str();
}

std::vector<FlagSpec> config_flag_specs() {
  return {
      {"traces", true, "TVLA traces per campaign, multiple of 64 (default 8192)"},
      {"iterations", true, "Algorithm-1 iterations per training design (default 100)"},
      {"mask-size", true, "Msize: gates masked per iteration / serve default (default 60)"},
      {"theta-r", true, "good-mask leakage-reduction ratio in [0,1] (default 0.70)"},
      {"locality", true, "L: BFS locality of the structural features (default 7)"},
      {"model", true, "adaboost | forest | xgboost | tree (default adaboost)"},
      {"rounds", true, "boosting rounds / forest size (default 300)"},
      {"seed", true, "experiment seed (default 1)"},
      {"threads", true, "worker threads, 0 = all cores (default 0)"},
      {"budget", true,
       "early-stop TVLA: min traces before the first checkpoint, 0 = fixed "
       "budget (default 0)"},
  };
}

core::PolarisConfig config_from_flags(const ParsedFlags& flags) {
  core::PolarisConfig config;
  // The bench/example demo scale: full paper parameters except Msize, which
  // is sized to the small training circuits (see bench_common.hpp).
  config.mask_size = 60;
  config.tvla.traces = 8192;
  config.tvla.noise_std_fj = 1.0;

  config.tvla.traces = flags.get_size("traces", config.tvla.traces);
  config.iterations = flags.get_size("iterations", config.iterations);
  config.mask_size = flags.get_size("mask-size", config.mask_size);
  config.theta_r = flags.get_double("theta-r", config.theta_r);
  config.locality = flags.get_size("locality", config.locality);
  config.model_rounds = flags.get_size("rounds", config.model_rounds);
  config.seed = flags.get_u64("seed", config.seed);
  config.threads = flags.get_size("threads", config.threads);
  config.tvla.seed = config.seed;
  // --budget N enables sequential early stopping with its first checkpoint
  // at N traces; 0 (the default) keeps the fixed-budget path and its
  // byte-identical outputs.
  if (const std::size_t budget = flags.get_size("budget", 0); budget != 0) {
    config.tvla.budget.enabled = true;
    config.tvla.budget.min_traces = budget;
  }
  if (flags.has("model")) {
    try {
      config.model = ml::model_kind_from_string(flags.get("model"));
    } catch (const std::invalid_argument& error) {
      throw UsageError(error.what());
    }
  }
  try {
    core::validate(config);
  } catch (const std::invalid_argument& error) {
    throw UsageError(error.what());
  }
  return config;
}

core::InferenceMode mode_from_string(const std::string& name) {
  if (name == "model") return core::InferenceMode::kModel;
  if (name == "rules") return core::InferenceMode::kRules;
  if (name == "model+rules" || name == "combined") {
    return core::InferenceMode::kModelPlusRules;
  }
  throw UsageError("unknown inference mode '" + name +
                   "'; expected model, rules, or model+rules");
}

using util::appendf;
using util::json_escape;

std::string render_audit_json(const std::string& design_name,
                              std::size_t gate_count,
                              const tvla::LeakageReport& report,
                              std::size_t traces, std::size_t top) {
  const auto leaky = report.leaky_groups();
  const std::size_t shown = std::min(top, leaky.size());
  std::string out;
  appendf(out,
          "{\"design\":\"%s\",\"gates\":%zu,\"measured\":%zu,"
          "\"leaky\":%zu,\"threshold\":%.3f,\"total_abs_t\":%.6f,"
          "\"leakage_per_gate\":%.6f,\"traces\":%zu,\"top\":[",
          json_escape(design_name).c_str(), gate_count,
          report.measured_count(), leaky.size(), report.threshold(),
          report.total_abs_t(), report.leakage_per_gate(), traces);
  for (std::size_t i = 0; i < shown; ++i) {
    appendf(out, "%s{\"gate\":%lu,\"t\":%.4f}", i == 0 ? "" : ",",
            static_cast<unsigned long>(leaky[i]), report.t_value(leaky[i]));
  }
  out += "]}";
  return out;
}

std::string render_audit_table(const std::string& design_name,
                               std::size_t gate_count,
                               const tvla::LeakageReport& report,
                               std::size_t traces, std::size_t top) {
  const auto leaky = report.leaky_groups();
  const std::size_t shown = std::min(top, leaky.size());
  std::string out;
  appendf(out, "=== TVLA audit: %s (%zu gates, %zu traces) ===\n",
          design_name.c_str(), gate_count, traces);
  appendf(out, "measured groups:  %zu\n", report.measured_count());
  appendf(out, "leaky (|t|>%.1f): %zu\n", report.threshold(), leaky.size());
  appendf(out, "total |t|:        %.3f\n", report.total_abs_t());
  appendf(out, "leakage per gate: %.3f\n\n", report.leakage_per_gate());
  if (shown > 0) {
    util::Table table({"Rank", "Gate", "|t|"});
    for (std::size_t i = 0; i < shown; ++i) {
      table.add_row({std::to_string(i + 1), std::to_string(leaky[i]),
                     util::format_double(std::abs(report.t_value(leaky[i])), 3)});
    }
    out += table.render();
  }
  return out;
}

std::string render_mask_json(const std::string& design_name,
                             std::size_t gate_count, std::size_t selected,
                             std::size_t masked_gate_count, double seconds,
                             const std::string& out_path,
                             const tvla::LeakageReport* before,
                             const tvla::LeakageReport* after) {
  std::string out;
  appendf(out,
          "{\"design\":\"%s\",\"gates\":%zu,\"masked\":%zu,"
          "\"masked_gates\":%zu,\"seconds\":%.4f,\"out\":\"%s\"",
          json_escape(design_name).c_str(), gate_count, selected,
          masked_gate_count, seconds, json_escape(out_path).c_str());
  if (before != nullptr && after != nullptr) {
    const double before_total = before->total_abs_t();
    const double after_total = after->total_abs_t();
    appendf(out,
            ",\"before_total_abs_t\":%.6f,\"after_total_abs_t\":%.6f,"
            "\"reduction_percent\":%.2f,\"leaky_before\":%zu,"
            "\"leaky_after\":%zu",
            before_total, after_total,
            util::reduction_percent(before_total, after_total),
            before->leaky_count(), after->leaky_count());
  }
  out += "}";
  return out;
}

std::string render_mask_text(const std::string& design_name,
                             std::size_t gate_count, std::size_t selected,
                             std::size_t masked_gate_count, double seconds,
                             const std::string& out_path,
                             const tvla::LeakageReport* before,
                             const tvla::LeakageReport* after) {
  (void)design_name;
  std::string out;
  appendf(out,
          "masked %zu of %zu gates in %.2fs (inference only - no TVLA "
          "in the loop)\n",
          selected, gate_count, seconds);
  appendf(out, "wrote %s (%zu cells after composite insertion)\n",
          out_path.c_str(), masked_gate_count);
  if (before != nullptr && after != nullptr) {
    const double before_total = before->total_abs_t();
    const double after_total = after->total_abs_t();
    appendf(out,
            "verification: leaky %zu -> %zu, total |t| %.2f -> %.2f "
            "(%.1f%% reduction)\n",
            before->leaky_count(), after->leaky_count(), before_total,
            after_total,
            util::reduction_percent(before_total, after_total));
  }
  return out;
}

}  // namespace polaris::cli
