/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hh"

namespace noc
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat rs;
    rs.sample(7.0);
    EXPECT_EQ(rs.count(), 1u);
    EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
    EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
    EXPECT_DOUBLE_EQ(rs.min(), 7.0);
    EXPECT_DOUBLE_EQ(rs.max(), 7.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat rs;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        rs.sample(x);
    EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 2.0); // classic population example
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
    EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).sample(x);
        all.sample(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.sample(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(LogHistogram, ExactBucketBoundaries)
{
    // lo=1, hi=16, 4 buckets: bounds 1, 2, 4, 8, 16 (powers of two).
    LogHistogram h(1.0, 16.0, 4);
    ASSERT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bound(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bound(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bound(2), 4.0);
    EXPECT_DOUBLE_EQ(h.bound(3), 8.0);
    EXPECT_DOUBLE_EQ(h.bound(4), 16.0);

    // Bucket i covers [bound(i), bound(i+1)); hi goes to overflow.
    h.sample(1.0);
    h.sample(1.999);
    h.sample(2.0);
    h.sample(7.999);
    h.sample(8.0);
    h.sample(15.999);
    h.sample(16.0);
    h.sample(1e9);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 8u);
}

TEST(LogHistogram, BelowRangeLandsInBucketZero)
{
    LogHistogram h(10.0, 1000.0, 2);
    h.sample(0.5);
    h.sample(9.999);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.minSample(), 0.5);
}

TEST(LogHistogram, PercentileInterpolation)
{
    // 100 samples spread uniformly inside one bucket [4, 8): the
    // percentile must interpolate linearly across that bucket.
    LogHistogram h(1.0, 16.0, 4);
    for (int i = 0; i < 100; ++i)
        h.sample(4.0 + 4.0 * i / 100.0);
    // p=0.5 -> target 50 of 100 in a bucket spanning [4, 8).
    EXPECT_NEAR(h.percentile(0.5), 6.0, 0.1);
    EXPECT_NEAR(h.percentile(0.25), 5.0, 0.1);
    // Extremes are exact: clamped to the observed sample range.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), h.maxSample());
}

TEST(LogHistogram, PercentileMonotonicOnLongTail)
{
    LogHistogram h(1.0, 1 << 20, 160);
    // Geometric long-tail: most samples small, a few huge.
    for (int i = 0; i < 1000; ++i)
        h.sample(10.0 + (i % 7));
    for (int i = 0; i < 10; ++i)
        h.sample(50000.0 + 1000.0 * i);
    double prev = 0.0;
    for (double p : {0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
    EXPECT_NEAR(h.percentile(0.5), 13.0, 1.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 59000.0);
}

TEST(LogHistogram, OverflowPercentileReportsMax)
{
    LogHistogram h(1.0, 4.0, 2);
    h.sample(2.0);
    h.sample(100.0);
    h.sample(200.0);
    // p99 falls in the overflow bucket: report the exact max sample.
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 200.0);
}

TEST(LogHistogram, MeanMinMaxAndReset)
{
    LogHistogram h(1.0, 1024.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0); // empty
    h.sample(2.0);
    h.sample(6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_DOUBLE_EQ(h.minSample(), 2.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 6.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 0.0);
}

TEST(LogHistogram, MergeMatchesCombined)
{
    LogHistogram a(1.0, 1024.0, 20);
    LogHistogram b(1.0, 1024.0, 20);
    LogHistogram both(1.0, 1024.0, 20);
    for (double x : {3.0, 17.0, 200.0}) {
        a.sample(x);
        both.sample(x);
    }
    for (double x : {1.5, 900.0, 5000.0}) {
        b.sample(x);
        both.sample(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.overflow(), both.overflow());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.minSample(), both.minSample());
    EXPECT_DOUBLE_EQ(a.maxSample(), both.maxSample());
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucket(i), both.bucket(i)) << "bucket " << i;
    EXPECT_DOUBLE_EQ(a.percentile(0.9), both.percentile(0.9));
}

TEST(Fairness, EmptyInput)
{
    const FairnessSummary s = summarizeFairness({});
    EXPECT_DOUBLE_EQ(s.avg, 0.0);
    EXPECT_DOUBLE_EQ(s.jain, 0.0);
}

TEST(Fairness, PerfectlyFair)
{
    const FairnessSummary s = summarizeFairness({2.0, 2.0, 2.0, 2.0});
    EXPECT_DOUBLE_EQ(s.max, 2.0);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.avg, 2.0);
    EXPECT_DOUBLE_EQ(s.rsd, 0.0);
    EXPECT_DOUBLE_EQ(s.jain, 1.0);
}

TEST(Fairness, TotallyUnfair)
{
    const FairnessSummary s = summarizeFairness({4.0, 0.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(s.jain, 0.25); // Jain index = 1/n for one winner
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.min, 0.0);
}

} // namespace
} // namespace noc
