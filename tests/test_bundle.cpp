// Polaris bundle persistence: a trained pipeline saved to .plb and loaded
// back must serve bit-identical score_gates output and identical
// mask_design gate selections for every InferenceMode; damaged bundles
// must fail with clean errors.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string_view>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "serialize/archive.hpp"
#include "util/fileio.hpp"

namespace {

using namespace polaris;

/// A per-process temp path, so test_bundle runs side by side (a Release
/// and a sanitizer build) never touch each other's files.
std::string bundle_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) +
         ".plb";
}

void write_image(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  util::write_file_atomic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

core::PolarisConfig test_config() {
  core::PolarisConfig config;
  config.mask_size = 30;
  config.iterations = 4;
  config.locality = 5;
  config.tvla.traces = 1024;
  config.tvla.noise_std_fj = 1.0;
  config.model_rounds = 40;
  config.seed = 3;
  return config;
}

circuits::Design target_design() {
  circuits::Design design{"sbox", circuits::make_aes_sbox_layer(1), {}};
  design.roles.assign(design.netlist.primary_inputs().size(),
                      circuits::InputRole::kData);
  return design;
}

class BundleRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    polaris_ = new core::Polaris(test_config());
    std::vector<circuits::Design> training;
    {
      circuits::Design d{"sbox1", circuits::make_aes_sbox_layer(1), {}};
      d.roles.assign(d.netlist.primary_inputs().size(),
                     circuits::InputRole::kData);
      training.push_back(std::move(d));
    }
    {
      circuits::Design d{"mult6", circuits::make_multiplier(6), {}};
      d.roles.assign(d.netlist.primary_inputs().size(),
                     circuits::InputRole::kData);
      training.push_back(std::move(d));
    }
    (void)polaris_->train(training, lib());
    path_ = new std::string(bundle_path("polaris_test_bundle"));
    polaris_->save_bundle(*path_);
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete polaris_;
    polaris_ = nullptr;
    path_ = nullptr;
  }

  static core::Polaris* polaris_;
  static std::string* path_;
};

core::Polaris* BundleRoundTrip::polaris_ = nullptr;
std::string* BundleRoundTrip::path_ = nullptr;

TEST_F(BundleRoundTrip, ScoresAreBitIdenticalForEveryMode) {
  // A fresh Polaris built only from the file - the "new process" contract.
  const auto served = core::Polaris::load_bundle(*path_);
  EXPECT_TRUE(served.trained());
  const auto design = target_design();
  for (const auto mode :
       {core::InferenceMode::kModel, core::InferenceMode::kRules,
        core::InferenceMode::kModelPlusRules}) {
    const auto expected = polaris_->score_gates(design, mode);
    const auto actual = served.score_gates(design, mode);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(actual[g], expected[g]) << "gate " << g;  // exact, not near
    }
  }
}

TEST_F(BundleRoundTrip, MaskSelectionsAreIdenticalForEveryMode) {
  const auto served = core::Polaris::load_bundle(*path_);
  const auto design = target_design();
  for (const auto mode :
       {core::InferenceMode::kModel, core::InferenceMode::kRules,
        core::InferenceMode::kModelPlusRules}) {
    const auto expected = polaris_->mask_design(design, lib(), 25, mode);
    const auto actual = served.mask_design(design, lib(), 25, mode);
    EXPECT_EQ(actual.selected, expected.selected);
  }
}

TEST_F(BundleRoundTrip, MetadataMatchesTrainedState) {
  const auto info = core::read_bundle_info(*path_);
  EXPECT_EQ(info.format_version, serialize::kFormatVersion);
  EXPECT_EQ(info.model_name, polaris_->model().name());
  EXPECT_EQ(info.samples, polaris_->training_data().size());
  EXPECT_EQ(info.positives, polaris_->training_data().positives());
  EXPECT_EQ(info.rule_count, polaris_->rules().rules().size());
  EXPECT_EQ(info.config_fingerprint,
            core::config_fingerprint(polaris_->config()));
  EXPECT_TRUE(info.has_dataset);

  const auto served = core::Polaris::load_bundle(*path_);
  EXPECT_EQ(served.training_data().size(), polaris_->training_data().size());
  EXPECT_EQ(served.config().locality, polaris_->config().locality);
  EXPECT_EQ(served.config().seed, polaris_->config().seed);
}

TEST_F(BundleRoundTrip, DatasetFreeBundleStillServes) {
  const std::string slim = bundle_path("polaris_slim_bundle");
  polaris_->save_bundle(slim, /*include_training_data=*/false);
  const auto info = core::read_bundle_info(slim);
  EXPECT_FALSE(info.has_dataset);

  const auto served = core::Polaris::load_bundle(slim);
  EXPECT_TRUE(served.training_data().empty());
  const auto design = target_design();
  const auto expected =
      polaris_->score_gates(design, core::InferenceMode::kModel);
  const auto actual = served.score_gates(design, core::InferenceMode::kModel);
  EXPECT_EQ(actual, expected);
  std::remove(slim.c_str());
}

TEST_F(BundleRoundTrip, FlippedByteFailsCleanly) {
  auto bytes = serialize::read_file(*path_);
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 2] ^= 0x01;
  const std::string corrupt = bundle_path("polaris_corrupt");
  write_image(corrupt, bytes);
  EXPECT_THROW((void)core::Polaris::load_bundle(corrupt), std::runtime_error);
  std::remove(corrupt.c_str());
}

TEST_F(BundleRoundTrip, TruncationFailsCleanly) {
  auto bytes = serialize::read_file(*path_);
  bytes.resize(bytes.size() / 3);
  const std::string cut = bundle_path("polaris_truncated");
  write_image(cut, bytes);
  EXPECT_THROW((void)core::Polaris::load_bundle(cut), std::runtime_error);
  std::remove(cut.c_str());
}

TEST_F(BundleRoundTrip, FutureFormatVersionFailsCleanly) {
  auto bytes = serialize::read_file(*path_);
  bytes[4] = static_cast<std::uint8_t>(serialize::kFormatVersion + 3);
  const std::uint32_t crc =
      serialize::crc32(std::span(bytes.data(), bytes.size() - 8));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  const std::string future = bundle_path("polaris_future");
  write_image(future, bytes);
  try {
    (void)core::Polaris::load_bundle(future);
    FAIL() << "future-version bundle accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
  std::remove(future.c_str());
}

TEST_F(BundleRoundTrip, ResaveReplacesTheFileInsteadOfRewritingIt) {
  // A bundle is replaced through a temp file and a rename, never rewritten
  // in place: a reader that already opened the old file (a serve about to
  // load it) keeps reading the old bytes in full, and an interrupted save
  // cannot leave a truncated bundle behind.
  const std::string path = bundle_path("polaris_held_bundle");
  polaris_->save_bundle(path);
  const auto old_bytes = serialize::read_file(path);
  const int held = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(held, 0);
  polaris_->save_bundle(path, /*include_training_data=*/false);

  std::vector<std::uint8_t> seen;
  std::uint8_t block[4096];
  ssize_t got = 0;
  while ((got = ::read(held, block, sizeof(block))) > 0) {
    seen.insert(seen.end(), block, block + got);
  }
  ::close(held);
  EXPECT_EQ(seen, old_bytes);
  const auto new_bytes = serialize::read_file(path);
  EXPECT_LT(new_bytes.size(), old_bytes.size());
  EXPECT_FALSE(core::read_bundle_info(path).has_dataset);
  std::remove(path.c_str());
}

TEST(Bundle, UntrainedSaveThrows) {
  const core::Polaris untrained(test_config());
  EXPECT_THROW(untrained.save_bundle(bundle_path("nope")),
               std::logic_error);
}

TEST(Bundle, MissingFileThrows) {
  EXPECT_THROW(
      (void)core::Polaris::load_bundle("/nonexistent/path/model.plb"),
      std::runtime_error);
}

}  // namespace
