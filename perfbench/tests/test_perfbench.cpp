// Tests of the benchmark's own arithmetic: percentiles and the tail rule,
// open-loop lateness accounting, span self time, and host-speed scaling.
#include <gtest/gtest.h>

#include <vector>

#include "calibrate.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Stats, MedianOfOddAndEvenSets) {
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, NearestRankPercentile) {
    const auto v = one_to(1000);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 990);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 500);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 1000);
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyondIt) {
    // p99 of 1000 samples is rank 990: exactly ten samples lie beyond.
    EXPECT_DOUBLE_EQ(tail_percentile_rank(1000), 99);
    EXPECT_DOUBLE_EQ(tail_percentile_rank(10000), 99.9);
    // 999 samples: p99 is rank 990 with nine beyond, so step down.
    EXPECT_DOUBLE_EQ(tail_percentile_rank(999), 95);
    EXPECT_DOUBLE_EQ(tail_percentile_rank(200), 95);
    EXPECT_DOUBLE_EQ(tail_percentile_rank(20), 50);
    EXPECT_DOUBLE_EQ(tail_percentile_rank(19), 0);
    for (std::size_t n : {20u, 57u, 100u, 999u, 1000u, 4321u, 10000u}) {
        const double p = tail_percentile_rank(n);
        const auto v = one_to(static_cast<int>(n));
        const double at = percentile(v, p);
        EXPECT_GE(static_cast<double>(n) - at, 10) << n;
    }
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
    // Due every 10 ms; the second request is sent late because the first
    // reply took 25 ms, so its latency includes the 15 ms it queued.
    const std::vector<Request> reqs{{0.000, 0.000, 0.025},
                                    {0.010, 0.025, 0.030},
                                    {0.020, 0.030, 0.032}};
    const auto lat = latencies_ms(reqs);
    ASSERT_EQ(lat.size(), 3u);
    EXPECT_NEAR(lat[0], 25, 1e-9);
    EXPECT_NEAR(lat[1], 20, 1e-9);
    EXPECT_NEAR(lat[2], 12, 1e-9);
}

TEST(OpenLoop, GeneratorLatenessExcludesWaitingForTheReply) {
    // Request 1 could only go out at 25 ms (the previous reply): no
    // lateness of the generator.  Request 2 was ready at 30 ms but sent
    // at 34 ms: 4 ms late.
    const std::vector<Request> reqs{{0.000, 0.001, 0.025},
                                    {0.010, 0.025, 0.030},
                                    {0.020, 0.034, 0.036}};
    const auto late = generator_lateness_ms(reqs);
    EXPECT_NEAR(late[0], 1, 1e-9);
    EXPECT_NEAR(late[1], 0, 1e-9);
    EXPECT_NEAR(late[2], 4, 1e-9);
}

TEST(OpenLoop, BacklogGrowthIsDetected) {
    std::vector<Request> steady, growing;
    for (int i = 0; i < 100; ++i) {
        const double due = i * 0.01;
        steady.push_back({due, due + 0.002, due + 0.004});
        // Service takes 12 ms against a 10 ms interval: each request
        // goes out 2 ms later than the one before.
        growing.push_back({due, due + i * 0.002, due + i * 0.002 + 0.012});
    }
    EXPECT_FALSE(backlog_grows(steady, 2));
    EXPECT_TRUE(backlog_grows(growing, 2));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
    SpanLog log;
    const auto root = log.add("unit", SpanLog::kNone, 0, 10);
    log.add("a", root, 1, 4);
    log.add("b", root, 3, 6);  // overlaps a: the union is [1, 6]
    const auto c = log.add("c", root, 8, 12);  // clipped to the parent at 10
    log.add("d", c, 9, 10);
    const auto self = log.self_seconds();
    EXPECT_DOUBLE_EQ(self.at("unit"), 10 - 5 - 2);
    EXPECT_DOUBLE_EQ(self.at("a"), 3);
    EXPECT_DOUBLE_EQ(self.at("b"), 3);
    EXPECT_DOUBLE_EQ(self.at("c"), 4 - 1);
    EXPECT_DOUBLE_EQ(self.at("d"), 1);
}

TEST(Spans, SelfTimesOfANestedTreeAddUpToTheRoot) {
    SpanLog log;
    const auto root = log.add("unit", SpanLog::kNone, 0, 100);
    const auto file = log.add("file", root, 0, 60);
    log.add("scan", file, 0, 10);
    log.add("decode", file, 10, 50);
    log.add("merge", root, 60, 95);
    double sum = 0;
    for (const auto& [name, s] : log.self_seconds()) sum += s;
    EXPECT_DOUBLE_EQ(sum, 100);
}

TEST(Spans, ScopeRecordsANonNegativeInterval) {
    SpanLog log;
    {
        Scope outer(log, "outer");
        Scope inner(log, "inner", outer.id());
    }
    ASSERT_EQ(log.size(), 2u);
    const auto self = log.self_seconds();
    EXPECT_GE(self.at("outer"), 0);
    EXPECT_GE(self.at("inner"), 0);
}

TEST(Calibration, ScalesTimesToTheReferenceSpeed) {
    // A host whose kernel runs twice as long as the reference is half as
    // fast: its times halve when scaled.
    EXPECT_DOUBLE_EQ(normalized(1.0, 2 * kCalibrationRefS), 0.5);
    EXPECT_DOUBLE_EQ(normalized(1.0, kCalibrationRefS), 1.0);
    EXPECT_DOUBLE_EQ(normalized(1.0, 0), 1.0);
    HostSpeed speed;
    EXPECT_DOUBLE_EQ(speed.normalize_at_last(3.0), 3.0);
    EXPECT_GT(speed.sample(), 0);
    EXPECT_GT(speed.normalize_since_last(1.0), 0);
    EXPECT_GT(speed.speed(), 0);
}

}  // namespace
}  // namespace perfbench
