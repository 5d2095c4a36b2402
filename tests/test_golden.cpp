// Golden-value regression tests: fixed-seed TVLA t-statistics,
// score_gates outputs, the extracted RuleSet's bytes and each model kind's
// serialized bytes checked against CSVs committed under tests/golden/.
// Their job is to make numeric drift LOUD: an engine/scheduler/model
// refactor that changes any double - even in the last bit - fails here,
// instead of silently shifting every paper table.
//
// Values are written with %.17g (lossless double round-trip). TVLA series
// (pure IEEE arithmetic) are compared bit-exactly; model-score series get
// a 64-ulp budget because their exp/log path varies by libm (see
// check_series). To regenerate after an *intentional* numeric change:
//   POLARIS_UPDATE_GOLDEN=1 ./test_golden
// then commit the rewritten CSVs with the change that explains them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "masking/masking.hpp"
#include "serialize/archive.hpp"
#include "serialize/model_io.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

bool update_mode() {
  const char* env = std::getenv("POLARIS_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string golden_path(const std::string& name) {
  return std::string(POLARIS_GOLDEN_DIR) + "/" + name;
}

/// One (index, value) series. CSV layout: header line, then `<index>,<v17>`
/// rows - no quoting needed, values never contain commas.
void write_series(const std::string& name, const std::string& header,
                  const std::vector<double>& values) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out) << "cannot write " << golden_path(name);
  out << header << "\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%zu,%.17g", i, values[i]);
    out << buffer << "\n";
  }
}

std::vector<double> read_series(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in) << "missing golden file " << golden_path(name)
                  << " (regenerate with POLARIS_UPDATE_GOLDEN=1)";
  std::vector<double> values;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    values.push_back(std::strtod(line.c_str() + comma + 1, nullptr));
  }
  return values;
}

/// Monotone mapping of the double line onto integers: adjacent doubles
/// differ by 1, -0.0 and +0.0 by 1, negatives sort below positives.
std::uint64_t float_order(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
}

std::uint64_t ulp_distance(double a, double b) {
  const std::uint64_t oa = float_order(a), ob = float_order(b);
  return oa > ob ? oa - ob : ob - oa;
}

/// max_ulps = 0: bit-exact (the TVLA series - pure IEEE +,-,*,/,sqrt, so
/// identical on every platform; a +0.0 -> -0.0 flip fails). Nonzero: the
/// model-score series, whose training path runs std::exp/std::log -
/// transcendentals are not correctly rounded, so their last-ulp spread
/// varies across libm implementations and gets amplified by the boosting
/// accumulation. 64 ulps (~1.4e-14 relative) absorbs that while staying
/// orders of magnitude below any real algorithmic drift.
void check_series(const std::string& name, const std::string& header,
                  const std::vector<double>& actual,
                  std::uint64_t max_ulps = 0) {
  if (update_mode()) {
    write_series(name, header, actual);
    return;
  }
  const auto golden = read_series(name);
  ASSERT_EQ(golden.size(), actual.size()) << name << ": series length drifted";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    // %.17g round-trips every double (sign of zero included), so the
    // comparison is over exact bit patterns, not re-parsed approximations.
    EXPECT_LE(ulp_distance(golden[i], actual[i]), max_ulps)
        << name << " index " << i << " drifted (was " << golden[i] << ", now "
        << actual[i] << ")";
  }
}

// --- TVLA t-statistics -------------------------------------------------------

tvla::TvlaConfig tvla_golden_config() {
  tvla::TvlaConfig config;
  config.traces = 1024;
  config.noise_std_fj = 1.0;
  config.seed = 20260728;
  config.threads = 0;  // results are thread-invariant; any value is the same
  return config;
}

TEST(Golden, TvlaSquare) {
  const auto design = circuits::get_design("square", 0.4);
  const auto report = tvla::run_fixed_vs_random(design.netlist, lib(),
                                                tvla_golden_config());
  check_series("tvla_square.csv", "gate,t", report.t_values());
}

TEST(Golden, TvlaMemctrlSequential) {
  // A sequential design: covers the multi-cycle sampling path and the
  // cycles_per_batch batch layout.
  const auto design = circuits::get_design("memctrl", 0.5);
  auto config = tvla_golden_config();
  config.cycles_per_batch = 8;
  const auto report =
      tvla::run_fixed_vs_random(design.netlist, lib(), config);
  check_series("tvla_memctrl.csv", "gate,t", report.t_values());
}

// The masked series lock the multi-member-group readout (masked composites
// and demask-charged readers), which the plain designs above never reach.

/// `design` with `count` of its maskable gates masked, drawn by a
/// Fisher-Yates shuffle seeded with 5 (hand-written, so the draw does not
/// depend on the standard library's std::shuffle).
netlist::Netlist masked_design(const netlist::Netlist& design,
                               std::size_t count, masking::Scheme scheme) {
  std::vector<netlist::GateId> gates;
  for (netlist::GateId g = 0; g < design.gate_count(); ++g) {
    if (netlist::is_maskable(design.gate(g).type)) gates.push_back(g);
  }
  util::Xoshiro256 rng(5);
  for (std::size_t i = gates.size(); i > 1; --i) {
    std::swap(gates[i - 1], gates[rng.bounded(i)]);
  }
  gates.resize(std::min(count, gates.size()));
  return masking::apply_masking(design, gates, scheme).design;
}

TEST(Golden, TvlaMaskedSquare) {
  const auto design = circuits::get_design("square", 0.4);
  const auto masked =
      masked_design(design.netlist, 60, masking::Scheme::kTrichina);
  const auto report =
      tvla::run_fixed_vs_random(masked, lib(), tvla_golden_config());
  check_series("tvla_masked_square.csv", "gate,t", report.t_values());
}

TEST(Golden, TvlaMaskedVoterDom) {
  const auto design = circuits::get_design("voter", 0.3);
  const auto masked = masked_design(design.netlist, 40, masking::Scheme::kDom);
  const auto report =
      tvla::run_fixed_vs_random(masked, lib(), tvla_golden_config());
  check_series("tvla_masked_voter_dom.csv", "gate,t", report.t_values());
}

TEST(Golden, TvlaMaskedMemctrlSequential) {
  const auto design = circuits::get_design("memctrl", 0.5);
  const auto masked =
      masked_design(design.netlist, 30, masking::Scheme::kTrichina);
  auto config = tvla_golden_config();
  config.cycles_per_batch = 8;
  const auto report = tvla::run_fixed_vs_random(masked, lib(), config);
  check_series("tvla_masked_memctrl.csv", "gate,t", report.t_values());
}

// Lane-block coverage. At 1024 traces the ShardPlan cuts 16 one-batch
// shards, so every combinational block above samples 1 word of 4. At 3072
// traces every shard holds 3 batches (each block a 3-word tail); at 4096,
// 4 batches (each block full).

void check_square_blocks(std::size_t traces, bool masked) {
  const auto design = circuits::get_design("square", 0.4);
  auto config = tvla_golden_config();
  config.traces = traces;
  const auto report =
      masked ? tvla::run_fixed_vs_random(
                   masked_design(design.netlist, 60,
                                 masking::Scheme::kTrichina),
                   lib(), config)
             : tvla::run_fixed_vs_random(design.netlist, lib(), config);
  check_series(std::string(masked ? "tvla_masked_square_" : "tvla_square_") +
                   std::to_string(traces) + ".csv",
               "gate,t", report.t_values());
}

TEST(Golden, TvlaSquareTailBlocks) { check_square_blocks(3072, false); }
TEST(Golden, TvlaSquareFullBlocks) { check_square_blocks(4096, false); }
TEST(Golden, TvlaMaskedSquareTailBlocks) { check_square_blocks(3072, true); }
TEST(Golden, TvlaMaskedSquareFullBlocks) { check_square_blocks(4096, true); }

// --- score_gates through a fixed-seed trained model --------------------------

/// Small but real: Algorithm 1 on two training designs, AdaBoost fit, rule
/// extraction - every stage that could drift feeds the scores checked here.
const core::Polaris& golden_polaris() {
  static const core::Polaris instance = [] {
    core::PolarisConfig config;
    config.mask_size = 30;
    config.locality = 3;
    config.iterations = 3;
    config.model = core::ModelKind::kAdaBoost;
    config.model_rounds = 25;
    config.tvla.traces = 512;
    config.tvla.noise_std_fj = 1.0;
    config.seed = 9;
    config.tvla.seed = 9;
    core::Polaris polaris(config);
    const auto training = circuits::training_suite();
    (void)polaris.train(std::span(training.data(), 2), lib());
    return polaris;
  }();
  return instance;
}

TEST(Golden, ScoreGatesSquareModel) {
  const auto design = circuits::get_design("square", 0.4);
  check_series("score_square_model.csv", "gate,score",
               golden_polaris().score_gates(design,
                                            core::InferenceMode::kModel),
               /*max_ulps=*/64);
}

TEST(Golden, ScoreGatesVoterModelPlusRules) {
  // The rule-augmented path additionally locks the extracted RuleSet.
  const auto design = circuits::get_design("voter", 0.3);
  check_series("score_voter_rules.csv", "gate,score",
               golden_polaris().score_gates(
                   design, core::InferenceMode::kModelPlusRules),
               /*max_ulps=*/64);
}

// --- emit_bits.csv rows ------------------------------------------------------

std::string fnv1a_hex(std::span<const std::uint8_t> bytes) {
  const std::uint64_t hash = util::fnv1a(bytes);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

/// Checks `actual` (row name -> "<length>,<value>") against the rows of
/// emit_bits.csv. Under POLARIS_UPDATE_GOLDEN it rewrites only these rows
/// and keeps every other (test_inference owns the Verilog rows).
void check_emit_rows(const std::map<std::string, std::string>& actual) {
  const std::string path = golden_path("emit_bits.csv");
  std::map<std::string, std::string> rows;  // name -> "<length>,<value>"
  {
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      const auto comma = line.find(',');
      if (comma != std::string::npos) {
        rows[line.substr(0, comma)] = line.substr(comma + 1);
      }
    }
  }
  if (update_mode()) {
    for (const auto& [name, row] : actual) rows[name] = row;
    std::ofstream out_csv(path);
    ASSERT_TRUE(out_csv) << "cannot write " << path;
    out_csv << "name,length,value\n";
    for (const auto& [row_name, row] : rows) {
      out_csv << row_name << "," << row << "\n";
    }
    return;
  }
  for (const auto& [name, row] : actual) {
    const auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << name << " missing from " << path;
    EXPECT_EQ(it->second, row) << name << ": bytes drifted";
  }
}

/// The `ruleset/golden_model` row: `<length>,<hex>` of golden_polaris()'s
/// RuleSet as write_ruleset writes it. Bit-exact, since a rule either
/// matches or not: a libm whose exp/log moves a training score by an ulp
/// can flip a near-tie in the TreeSHAP ranking and change a literal, which
/// is why the pin lives here with the other train-in-the-loop goldens and
/// not in test_inference's unit gate.
TEST(Golden, RuleSetBytes) {
  serialize::Writer out;
  serialize::write_ruleset(out, golden_polaris().rules());
  const auto bytes = out.finish();
  std::string value = std::to_string(bytes.size()) + ",";
  static constexpr char kDigits[] = "0123456789abcdef";
  for (const std::uint8_t b : bytes) {
    value += kDigits[b >> 4];
    value += kDigits[b & 15];
  }
  check_emit_rows({{"ruleset/golden_model", value}});
}

/// One `model/<name>` row per model kind: `<length>,<FNV-1a>` of the MODL
/// payload that make_model's model, fitted on golden_polaris()'s training
/// data, serializes to. Pins make_model's mapping of the golden config onto
/// each kind's hyper-parameters as well as every fit. Bit-exact for the
/// same reason as the RuleSet row (the boosted fits run exp/log).
TEST(Golden, ModelBytesEveryKind) {
  constexpr std::size_t kArchiveHeader = 8;  // magic + container version
  std::map<std::string, std::string> actual;
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kXgboost,
        core::ModelKind::kAdaBoost, core::ModelKind::kDecisionTree}) {
    core::PolarisConfig config = golden_polaris().config();
    config.model = kind;
    const auto model = core::make_model(config);
    model->fit(golden_polaris().training_data());
    serialize::Writer out;
    model->save(out);
    const auto payload = std::span(out.bytes()).subspan(kArchiveHeader);
    actual["model/" + ml::to_string(kind)] =
        std::to_string(payload.size()) + "," + fnv1a_hex(payload);
  }
  check_emit_rows(actual);
}

}  // namespace
