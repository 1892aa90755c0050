/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"

namespace noc
{
namespace
{

TEST(Rng, HeldOutDosSeedSharesNoSubSeedWithSeedOne)
{
    // perfbench's DoS workload runs LOFT on sub-seeds mixSeed(seed, i),
    // i < 16. mixSeed depends only on a ^ (b + golden), so master
    // seeds 0-15 (and 48-63) reuse some of seed 1's sub-seeds: seed 11
    // shares 6 of them. A held-out DoS seed must share none; 17 does.
    std::set<std::uint64_t> one;
    for (std::uint64_t i = 0; i < 16; ++i)
        one.insert(mixSeed(1, i));
    std::size_t shared11 = 0;
    std::size_t shared17 = 0;
    for (std::uint64_t i = 0; i < 16; ++i) {
        shared11 += one.count(mixSeed(11, i));
        shared17 += one.count(mixSeed(17, i));
    }
    EXPECT_EQ(shared17, 0u);
    EXPECT_EQ(shared11, 6u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const auto first = a.next();
    a.next();
    a.seed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, RandRangeStaysInBounds)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.randRange(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, RandRangeCoversAllValues)
{
    Rng r(5);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[r.randRange(8)];
    for (int count : seen)
        EXPECT_GT(count, 0);
}

TEST(Rng, RandDoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.randDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, RandDoubleMeanNearHalf)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.randDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

} // namespace
} // namespace noc
