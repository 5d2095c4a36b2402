// The serialization subsystem: archive container (endianness, chunking,
// CRC, version gates), artifact round-trips for all four classifiers,
// Dataset, and RuleSet, and the hard-failure paths (truncation, flipped
// bytes, future versions, malformed payloads - clean errors, never UB).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "ml/adaboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "serialize/model_io.hpp"
#include "util/rng.hpp"
#include "xai/rules.hpp"

namespace {

using namespace polaris;

double uniform(util::Xoshiro256& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// --- archive container ------------------------------------------------------

TEST(Archive, PrimitivesRoundTrip) {
  serialize::Writer out;
  out.begin_chunk("TEST");
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFULL);
  out.i32(-12345);
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.f64(std::numeric_limits<double>::infinity());
  out.f64(5e-324);  // smallest denormal
  out.boolean(true);
  out.str(std::string_view("hello \n\0 world", 14));  // embedded NUL survives
  out.f64_vec(std::vector<double>{1.5, -2.5, 0.0});
  out.i32_vec(std::vector<int>{-1, 0, 7});
  out.bool_vec(std::vector<bool>{true, false, true});
  out.end_chunk();

  serialize::Reader in(out.finish());
  EXPECT_EQ(in.version(), serialize::kFormatVersion);
  in.enter_chunk("TEST");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.i32(), -12345);
  const double neg_zero = in.f64();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(neg_zero),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(std::isinf(in.f64()));
  EXPECT_EQ(in.f64(), 5e-324);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.str(), std::string("hello \n\0 world", 14));
  EXPECT_EQ(in.f64_vec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(in.i32_vec(), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(in.bool_vec(), (std::vector<bool>{true, false, true}));
  in.exit_chunk();
}

TEST(Archive, VarintRoundTripsAndRejectsMalformedEncodings) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  serialize::Writer out;
  out.begin_chunk("VARI");
  for (const std::uint64_t value : {std::uint64_t{0}, std::uint64_t{127},
                                    std::uint64_t{128}, kMax}) {
    out.varint(value);
  }
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("VARI");
  EXPECT_EQ(in.remaining(), 1u + 1u + 2u + 10u);
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_EQ(in.varint(), 127u);
  EXPECT_EQ(in.varint(), 128u);
  EXPECT_EQ(in.varint(), kMax);
  EXPECT_EQ(in.remaining(), 0u);

  const auto read_raw = [](const std::vector<std::uint8_t>& raw) {
    serialize::Writer writer;
    writer.begin_chunk("VARI");
    for (const std::uint8_t byte : raw) writer.u8(byte);
    writer.end_chunk();
    serialize::Reader reader(writer.finish());
    reader.enter_chunk("VARI");
    return reader.varint();
  };
  std::vector<std::uint8_t> max(9, 0xFF);
  max.push_back(0x01);
  EXPECT_EQ(read_raw(max), kMax);
  // Truncated: the last byte still has its continuation bit set.
  EXPECT_THROW((void)read_raw({0x80, 0x80}), std::runtime_error);
  // Eleven bytes: the 10th carries a continuation bit.
  std::vector<std::uint8_t> overlong(10, 0x80);
  overlong.push_back(0x00);
  EXPECT_THROW((void)read_raw(overlong), std::runtime_error);
  // Ten bytes whose last holds more than bit 63.
  std::vector<std::uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x02);
  EXPECT_THROW((void)read_raw(overflow), std::runtime_error);
}

TEST(Archive, LittleEndianOnDisk) {
  serialize::Writer out;
  out.begin_chunk("ENDI");
  out.u32(0x01020304u);
  out.end_chunk();
  const auto bytes = out.finish();
  // header (8) + tag (4) + length prefix (8) = payload starts at 20.
  ASSERT_GE(bytes.size(), 24u);
  EXPECT_EQ(bytes[20], 0x04);
  EXPECT_EQ(bytes[21], 0x03);
  EXPECT_EQ(bytes[22], 0x02);
  EXPECT_EQ(bytes[23], 0x01);
}

TEST(Archive, UnknownChunksAreSkippable) {
  serialize::Writer out;
  out.begin_chunk("NEWC");  // a future producer's section
  out.str("from the future");
  out.end_chunk();
  out.begin_chunk("KNWN");
  out.u32(42);
  out.end_chunk();

  serialize::Reader in(out.finish());
  EXPECT_EQ(in.peek_tag(), "NEWC");
  EXPECT_FALSE(in.try_enter_chunk("KNWN"));
  in.skip_chunk();
  in.enter_chunk("KNWN");
  EXPECT_EQ(in.u32(), 42u);
  in.exit_chunk();
  EXPECT_EQ(in.peek_tag(), "");
}

TEST(Archive, AppendedFieldsAreIgnoredByOldReaders) {
  serialize::Writer out;
  out.begin_chunk("GROW");
  out.u32(7);
  out.f64(3.25);  // field a newer writer appended
  out.end_chunk();
  out.begin_chunk("NEXT");
  out.u32(8);
  out.end_chunk();

  serialize::Reader in(out.finish());
  in.enter_chunk("GROW");
  EXPECT_EQ(in.u32(), 7u);
  in.exit_chunk();  // skips the appended f64
  in.enter_chunk("NEXT");
  EXPECT_EQ(in.u32(), 8u);
  in.exit_chunk();
}

TEST(Archive, TruncationFails) {
  serialize::Writer out;
  out.begin_chunk("TEST");
  for (int i = 0; i < 64; ++i) out.u64(static_cast<std::uint64_t>(i));
  out.end_chunk();
  const auto bytes = out.finish();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{11}, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(serialize::Reader{std::move(cut)}, std::runtime_error)
        << "kept " << keep << " bytes";
  }
}

TEST(Archive, EveryFlippedByteFails) {
  serialize::Writer out;
  out.begin_chunk("TEST");
  out.str("payload");
  out.end_chunk();
  const auto bytes = out.finish();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x40;
    EXPECT_THROW(serialize::Reader{std::move(corrupt)}, std::runtime_error)
        << "flipped byte " << i;
  }
}

TEST(Archive, FutureFormatVersionFails) {
  serialize::Writer out;
  out.begin_chunk("TEST");
  out.end_chunk();
  auto bytes = out.finish();
  bytes[4] = static_cast<std::uint8_t>(serialize::kFormatVersion + 1);
  // Re-seal so only the version gate (not the CRC) can reject it.
  const std::uint32_t crc =
      serialize::crc32(std::span(bytes.data(), bytes.size() - 8));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    serialize::Reader in(std::move(bytes));
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST(Archive, WrongTagAndOverreadFail) {
  serialize::Writer out;
  out.begin_chunk("ABCD");
  out.u32(1);
  out.end_chunk();
  serialize::Reader in(out.finish());
  EXPECT_THROW(in.enter_chunk("EFGH"), std::runtime_error);
  in.enter_chunk("ABCD");
  EXPECT_EQ(in.u32(), 1u);
  EXPECT_THROW((void)in.u32(), std::runtime_error);  // past chunk end
  in.exit_chunk();
}

// --- property / stress tests ------------------------------------------------

TEST(Archive, RandomizedChunkPayloadsRoundTrip) {
  // Seeded property sweep: archives with random chunk counts, random
  // payload mixes, and random vector lengths (empty included) must
  // round-trip value-exactly. Catches length-prefix and alignment bugs the
  // hand-written cases miss.
  util::Xoshiro256 rng(0x5eed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t chunks = 1 + rng.bounded(5);
    std::vector<std::vector<double>> f64s(chunks);
    std::vector<std::vector<std::uint8_t>> u8s(chunks);
    std::vector<std::string> strs(chunks);
    std::vector<std::uint64_t> u64s(chunks);

    serialize::Writer out;
    for (std::size_t c = 0; c < chunks; ++c) {
      f64s[c].resize(rng.bounded(300));  // 0..299: empty vectors included
      for (auto& v : f64s[c]) v = rng.gaussian() * 1e3;
      u8s[c].resize(rng.bounded(1000));
      for (auto& v : u8s[c]) v = static_cast<std::uint8_t>(rng());
      strs[c].resize(rng.bounded(100));
      for (auto& ch : strs[c]) ch = static_cast<char>(rng());  // NULs too
      u64s[c] = rng();

      out.begin_chunk("PROP");
      out.u64(u64s[c]);
      out.f64_vec(f64s[c]);
      out.str(strs[c]);
      out.u8_vec(u8s[c]);
      out.end_chunk();
    }

    serialize::Reader in(out.finish());
    for (std::size_t c = 0; c < chunks; ++c) {
      in.enter_chunk("PROP");
      EXPECT_EQ(in.u64(), u64s[c]);
      const auto f64_back = in.f64_vec();
      ASSERT_EQ(f64_back.size(), f64s[c].size());
      for (std::size_t i = 0; i < f64_back.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(f64_back[i]),
                  std::bit_cast<std::uint64_t>(f64s[c][i]));
      }
      EXPECT_EQ(in.str(), strs[c]);
      EXPECT_EQ(in.u8_vec(), u8s[c]);
      in.exit_chunk();
    }
    EXPECT_EQ(in.peek_tag(), "");
  }
}

TEST(Archive, EveryPrefixOfASmallBundleFailsCleanly) {
  // Truncation sweep: EVERY proper prefix of a bundle-shaped archive
  // (nested chunks, the .plb tag layout) must raise std::runtime_error
  // from the Reader constructor - never crash, never parse.
  util::Xoshiro256 rng(77);
  serialize::Writer out;
  out.begin_chunk("HEAD");
  out.u32(1);
  out.str("polaris-bundle");
  out.u64(rng());
  out.end_chunk();
  out.begin_chunk("MODL");
  out.begin_chunk("TREE");  // nested, like the real ensemble layout
  std::vector<double> weights(17);
  for (auto& w : weights) w = rng.gaussian();
  out.f64_vec(weights);
  out.end_chunk();
  out.end_chunk();
  out.begin_chunk("DATA");
  out.u64(3);
  out.end_chunk();
  const auto bytes = out.finish();

  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(serialize::Reader{std::move(cut)}, std::runtime_error)
        << "prefix of " << keep << " bytes parsed";
  }
  // The full archive, untouched, still reads: the sweep failed for the
  // right reason.
  serialize::Reader in{std::vector<std::uint8_t>(bytes)};
  in.enter_chunk("HEAD");
  EXPECT_EQ(in.u32(), 1u);
  in.exit_chunk();
}

TEST(Archive, RandomTruncationOfRandomArchivesNeverCrashes) {
  // Seeded stress: random archives, random cut points. Anything the
  // Reader accepts must be the untruncated whole (CRC guarantees it);
  // every cut must throw.
  util::Xoshiro256 rng(0xacc1de27);
  for (int trial = 0; trial < 30; ++trial) {
    serialize::Writer out;
    const std::size_t chunks = 1 + rng.bounded(4);
    for (std::size_t c = 0; c < chunks; ++c) {
      out.begin_chunk("RAND");
      std::vector<std::uint8_t> payload(rng.bounded(500));
      for (auto& v : payload) v = static_cast<std::uint8_t>(rng());
      out.u8_vec(payload);
      out.end_chunk();
    }
    const auto bytes = out.finish();
    for (int cut = 0; cut < 16; ++cut) {
      const std::size_t keep = rng.bounded(bytes.size());
      std::vector<std::uint8_t> prefix(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
      EXPECT_THROW(serialize::Reader{std::move(prefix)}, std::runtime_error)
          << "trial " << trial << " kept " << keep << " of " << bytes.size();
    }
  }
}

TEST(ModelIo, OversizedDatasetRowCountFails) {
  // A lying row count must raise the clean error before any allocation.
  serialize::Writer out;
  out.begin_chunk("DATA");
  out.u64(std::uint64_t{1} << 40);  // claimed rows
  out.u64(8);                       // claimed feature width
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("DATA");
  EXPECT_THROW((void)serialize::read_dataset(in), std::runtime_error);
}

TEST(Archive, OversizedVectorCountFails) {
  // A corrupt length prefix must not drive a giant allocation; craft a
  // CRC-valid archive whose vector *count* lies.
  serialize::Writer out;
  out.begin_chunk("EVIL");
  out.u64(std::numeric_limits<std::uint64_t>::max());  // claimed f64 count
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("EVIL");
  EXPECT_THROW((void)in.f64_vec(), std::runtime_error);
}

// --- artifact round-trips ---------------------------------------------------

/// Nonlinearly-labelled synthetic data: mixed binary + continuous features,
/// the shape the POLARIS feature extractor produces.
ml::Dataset synthetic_dataset(std::size_t rows, std::size_t features,
                              std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  ml::Dataset data;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> x(features);
    for (std::size_t f = 0; f < features; ++f) {
      x[f] = f % 3 == 2 ? uniform(rng) : static_cast<double>(rng.bounded(2));
    }
    const bool label =
        (x[0] >= 0.5) != (x[1] >= 0.5) || x[features - 1] > 0.8;
    data.add(std::move(x), label ? 1 : 0);
  }
  return data;
}

void expect_identical_predictions(const ml::Classifier& a,
                                  const ml::Classifier& b,
                                  std::size_t features) {
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(features);
    for (auto& v : x) {
      v = trial % 2 == 0 ? uniform(rng) : static_cast<double>(rng.bounded(2));
    }
    // Bit-identical, not approximately equal: the serving path must
    // reproduce the training process's scores exactly.
    EXPECT_EQ(a.predict_proba(x), b.predict_proba(x));
    EXPECT_EQ(a.predict_margin(x), b.predict_margin(x));
  }
}

template <typename Model, typename Config>
void round_trip_classifier(Config config) {
  const std::size_t kFeatures = 9;
  const auto data = synthetic_dataset(240, kFeatures, 7);
  Model original(config);
  original.fit(data);
  ASSERT_FALSE(original.ensemble().trees.empty());

  serialize::Writer out;
  out.begin_chunk("MODL");
  ml::save_classifier(out, original);
  out.end_chunk();

  serialize::Reader in(out.finish());
  in.enter_chunk("MODL");
  const auto loaded = ml::load_classifier(in);
  in.exit_chunk();

  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->name(), original.name());
  EXPECT_EQ(loaded->kind(), original.kind());
  EXPECT_EQ(loaded->ensemble().trees.size(), original.ensemble().trees.size());
  expect_identical_predictions(original, *loaded, kFeatures);
}

TEST(ModelIo, DecisionTreeRoundTrips) {
  round_trip_classifier<ml::DecisionTree>(ml::DecisionTreeConfig{});
}

TEST(ModelIo, RandomForestRoundTrips) {
  round_trip_classifier<ml::RandomForest>(ml::ForestConfig{.trees = 25});
}

TEST(ModelIo, GbdtRoundTrips) {
  round_trip_classifier<ml::Gbdt>(ml::GbdtConfig{.rounds = 40});
}

TEST(ModelIo, AdaBoostRoundTrips) {
  round_trip_classifier<ml::AdaBoost>(ml::AdaBoostConfig{.rounds = 40});
}

TEST(ModelIo, UnknownClassifierKindFails) {
  serialize::Writer out;
  out.begin_chunk("MODL");
  out.u32(999);  // no such ClassifierKind
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("MODL");
  EXPECT_THROW((void)ml::load_classifier(in), std::runtime_error);
}

TEST(ModelIo, CorruptTreeChildIndicesFail) {
  // Children referring backwards (cycle) must be rejected, not walked.
  serialize::Writer out;
  out.begin_chunk("TREE");
  out.u64(1);          // node count
  out.i32(0);          // feature (interior node)
  out.f64(0.5);        // threshold
  out.i32(0);          // left -> itself: cycle
  out.i32(0);          // right
  out.f64(0.0);
  out.f64(1.0);
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("TREE");
  EXPECT_THROW((void)serialize::read_tree(in), std::runtime_error);
}

TEST(ModelIo, DatasetRoundTrips) {
  auto data = synthetic_dataset(60, 5, 3);
  data.set_weight(4, 2.75);
  serialize::Writer out;
  out.begin_chunk("DATA");
  serialize::write_dataset(out, data);
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("DATA");
  const auto loaded = serialize::read_dataset(in);
  in.exit_chunk();

  ASSERT_EQ(loaded.size(), data.size());
  ASSERT_EQ(loaded.feature_count(), data.feature_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(loaded.label(i), data.label(i));
    EXPECT_EQ(loaded.weight(i), data.weight(i));
    for (std::size_t f = 0; f < data.feature_count(); ++f) {
      EXPECT_EQ(loaded.row(i)[f], data.row(i)[f]);
    }
  }
}

TEST(ModelIo, RuleSetRoundTrips) {
  std::vector<xai::Rule> rules;
  rules.push_back(xai::Rule{{{3, true}, {7, false}}, 1, 12, 0.92});
  rules.push_back(xai::Rule{{{0, false}}, 0, 5, 0.71});
  const xai::RuleSet original(std::move(rules));

  serialize::Writer out;
  out.begin_chunk("RULE");
  serialize::write_ruleset(out, original);
  out.end_chunk();
  serialize::Reader in(out.finish());
  in.enter_chunk("RULE");
  const auto loaded = serialize::read_ruleset(in);
  in.exit_chunk();

  ASSERT_EQ(loaded.rules().size(), original.rules().size());
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> x(10);
    for (auto& v : x) v = static_cast<double>(rng.bounded(2));
    EXPECT_EQ(loaded.score(x), original.score(x));
  }
}

}  // namespace
