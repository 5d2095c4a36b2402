// Tests for the benchmark's own statistics: nearest-rank percentiles and
// the ten-beyond rule at small n, median and Python-compatible quartiles,
// and span self time with nested and overlapping cross-thread children.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // descending, so selection must sort
}

TEST(Percentile, NearestRankAtSmallN) {
  EXPECT_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile(one_to(4), 0.5), 2.0);   // ceil(2) = rank 2
  EXPECT_EQ(percentile(one_to(5), 0.5), 3.0);   // ceil(2.5) = rank 3
  EXPECT_EQ(percentile(one_to(10), 0.9), 9.0);  // exact product stays put
  EXPECT_EQ(percentile(one_to(10), 0.91), 10.0);
  EXPECT_EQ(percentile(one_to(10), 0.0), 1.0);
  EXPECT_EQ(percentile(one_to(10), 1.0), 10.0);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, ExactProductsDoNotRoundUp) {
  // 0.99 * 1000 and 0.95 * 200 must select rank 990 and 190.
  EXPECT_EQ(rank_index(1000, 0.99), 989u);
  EXPECT_EQ(rank_index(200, 0.95), 189u);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(200), 0.95), 190.0);
}

TEST(TailRule, TenBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
  EXPECT_EQ(min_samples_for_tail(0.95), 200u);
  EXPECT_EQ(min_samples_for_tail(0.5), 20u);
  EXPECT_EQ(tail(one_to(1000), 0.99, "t"), 990.0);
  EXPECT_THROW((void)tail(one_to(999), 0.99, "t"), std::runtime_error);
  EXPECT_THROW((void)tail(one_to(19), 0.5, "t"), std::runtime_error);
  EXPECT_THROW((void)tail({}, 0.5, "t"), std::runtime_error);
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Reference values from statistics.quantiles(values, n=4).
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = quartiles({3.5, 1.25, 9.0, 4.0});
  EXPECT_DOUBLE_EQ(b[0], 1.8125);
  EXPECT_DOUBLE_EQ(b[1], 3.75);
  EXPECT_DOUBLE_EQ(b[2], 7.75);
  const auto c = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 4.5);
  const auto d = quartiles({2.0, 7.0});  // clamped, so it extrapolates
  EXPECT_DOUBLE_EQ(d[0], 0.75);
  EXPECT_DOUBLE_EQ(d[1], 4.5);
  EXPECT_DOUBLE_EQ(d[2], 8.25);
}

TEST(Quartiles, RelativeIqr) {
  EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(relative_iqr({4.0, 4.0, 4.0}), 0.0);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_time({10, 50}, {}), 40);
}

TEST(SelfTime, DisjointAndNestedChildren) {
  // Two disjoint children, one with its own nested child inside it: only
  // direct children are passed, and nesting below them does not matter.
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Concurrent children on other threads overlap; their union is 10..70.
  EXPECT_EQ(self_time({0, 100}, {{10, 50}, {30, 70}, {40, 45}}), 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_time({20, 60}, {{0, 30}, {50, 90}}), 20);
  EXPECT_EQ(self_time({20, 60}, {{0, 10}, {70, 90}}), 40);
  EXPECT_EQ(self_time({20, 60}, {{0, 100}}), 0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  {
    auto span = tracer.span("a");
    auto inner = tracer.span("b");
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, NestedSpansOnOneThread) {
  Tracer tracer(true);
  {
    auto outer = tracer.span("outer");
    { auto inner = tracer.span("inner"); }
    { auto inner = tracer.span("inner"); }
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& outer = spans.back();
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(spans[i].parent, outer.id);
    EXPECT_EQ(spans[i].trace, outer.id);
  }
  const auto summary = tracer.summary();
  EXPECT_EQ(summary.at("inner").count, 2u);
  const double children = summary.at("inner").total_ms;
  EXPECT_NEAR(summary.at("outer").self_ms, summary.at("outer").total_ms - children,
              1e-9);
}

TEST(Tracer, CrossThreadChildrenOverlap) {
  Tracer tracer(true);
  {
    auto parent = tracer.span("pass");
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&] {
        auto child = tracer.child("campaign", parent);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  const Span& pass = spans.back();
  std::vector<Interval> children;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(spans[i].parent, pass.id);
    children.push_back({spans[i].start_ns, spans[i].end_ns});
  }
  const auto summary = tracer.summary();
  const double pass_ms = summary.at("pass").total_ms;
  // Three concurrent 20 ms children cover about 20 ms of the pass, not 60.
  EXPECT_GT(summary.at("campaign").total_ms, pass_ms);
  EXPECT_GE(summary.at("pass").self_ms, 0.0);
  EXPECT_NEAR(summary.at("pass").self_ms,
              static_cast<double>(self_time({pass.start_ns, pass.end_ns}, children)) /
                  1e6,
              1e-9);
}

}  // namespace
}  // namespace perfbench
