/**
 * @file
 * Unit tests for RunningStats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.h"
#include "stats/summary.h"

namespace ibs {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSmallSample)
{
    // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4.
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_NEAR(s.sampleVariance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(99);
    RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble() * 10.0 - 3.0;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    const double mean = a.mean();
    a.merge(b); // No-op.
    EXPECT_DOUBLE_EQ(a.mean(), mean);
    b.merge(a); // Copy.
    EXPECT_DOUBLE_EQ(b.mean(), mean);
    EXPECT_EQ(b.count(), 2u);
}

TEST(RunningStats, StddevOfConstantIsZero)
{
    RunningStats s;
    for (int i = 0; i < 100; ++i)
        s.add(7.25);
    EXPECT_NEAR(s.stddev(), 0.0, 1e-12);
}

} // namespace
} // namespace ibs
