#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <set>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace polaris::util;

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 a(11);
  Xoshiro256 child = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == child()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, Split) {
  const auto tokens = split("a, b,,c", ", ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
  EXPECT_TRUE(split("", ",").empty());
  EXPECT_TRUE(split(",,,", ",").empty());
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("module top", "module"));
  EXPECT_FALSE(starts_with("mod", "module"));
  EXPECT_EQ(to_lower("NaNd"), "nand");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Strings, AppendfNeverTruncates) {
  // The telemetry renderers cut a formatted piece at 255 bytes before they
  // shared this helper.
  std::string out = "x";
  const std::string name(300, 'n');
  appendf(out, "[%s]%d", name.c_str(), 7);
  EXPECT_EQ(out, "x[" + name + "]7");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("q\"b\\n\nr\rt\t\x01"),
            "q\\\"b\\\\n\\nr\\rt\\t\\u0001");
}

TEST(Hash, Fnv1aReferenceValues) {
  EXPECT_EQ(fnv1a(std::string_view("")), kFnv1aOffset);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ULL);
  // A hash continues from the one passed in, and a word folds in as its
  // little-endian bytes.
  EXPECT_EQ(fnv1a(std::string_view("bar"), fnv1a(std::string_view("foo"))),
            fnv1a(std::string_view("foobar")));
  const unsigned char bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(fnv1a_u64(kFnv1aOffset, 0x0102030405060708ULL),
            fnv1a(bytes, sizeof bytes));
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1.25"});
  table.add_row({"b", "33.10"});
  const std::string out = table.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("33.10"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, PadsMissingCells) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NO_THROW((void)table.render());
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"quote\"inside", "line\nbreak"});
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

/// Removes a file when the scope ends, on every exit path.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

TEST(Csv, WriteFileRoundTrip) {
  CsvWriter csv({"h"});
  csv.add_row({"v"});
  const std::string path = testing::TempDir() + "/polaris_csv_test_" +
                           std::to_string(::getpid()) + ".csv";
  const RemoveOnExit cleanup{path};
  csv.write_file(path);
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  fclose(f);
}

TEST(Csv, WriteFileFailsOnBadPath) {
  CsvWriter csv({"h"});
  EXPECT_THROW(csv.write_file("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Fileio, WriteFileAtomicWritesAndOverwrites) {
  const std::string path = testing::TempDir() + "/polaris_atomic_test_" +
                           std::to_string(::getpid()) + ".txt";
  write_file_atomic(path, "first contents\n");
  EXPECT_EQ(slurp(path), "first contents\n");
  // Overwrite: the target is replaced whole, never appended or truncated.
  write_file_atomic(path, "second");
  EXPECT_EQ(slurp(path), "second");
  std::remove(path.c_str());
}

TEST(Fileio, WriteFileAtomicFailsCleanlyOnBadDirectory) {
  EXPECT_THROW(write_file_atomic("/nonexistent_dir_xyz/out.txt", "x"),
               std::runtime_error);
}

TEST(Fileio, WriteFileAtomicLeavesNoTempFilesBehind) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/polaris_atomic_dir_" +
                          std::to_string(::getpid());
  fs::create_directories(dir);
  write_file_atomic(dir + "/out.txt", "payload");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  // Only the target: the temp file was renamed over it, not left behind.
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(slurp(dir + "/out.txt"), "payload");
  fs::remove_all(dir);
}

}  // namespace
