/**
 * @file
 * Unit tests for the deterministic RNG and samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "stats/rng.h"

namespace ibs {
namespace {

TEST(Rng, DeterministicForSeed)
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
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(5);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int v : seen)
        EXPECT_GT(v, 700); // Expect ~1000 each.
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    const double p = 0.2;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    // Mean of failures-before-success = (1-p)/p = 4.
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, GeometricPOneIsZero)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
}

/** The reference draw GeometricSampler must match: log1p(-p)
 *  evaluated on every draw. */
uint64_t
perDrawGeometric(Rng &rng, double p)
{
    if (p >= 1.0)
        return 0;
    double u = rng.nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<uint64_t>(std::floor(std::log(u) /
                                            std::log1p(-p)));
}

TEST(Rng, GeometricSamplerDrawsExactlyThePerDrawFormula)
{
    // Edge values, the walkers' 1 / (mean bytes / 4) over a spread of
    // means, and DataWalker's 8 / (stack words).
    std::vector<double> ps = {1e-12, 1e-6, 0.001, 0.12, 0.2, 0.5,
                              0.75, 0.999, 1.0 - 1e-12, 1.0};
    for (double mean_bytes : {5.0, 6.0, 7.0, 12.0, 24.0, 40.0, 96.0,
                              160.0, 640.0, 4096.0, 1e5})
        ps.push_back(1.0 / (mean_bytes / 4.0));
    ps.push_back(8.0 / 512.0);
    for (const uint64_t seed : {1ull, 42ull, 0x9e3779b97f4a7c15ull,
                                0xdeadbeefull, ~0ull}) {
        for (const double p : ps) {
            const GeometricSampler sampler(p);
            Rng reference(seed), held(seed), per_call(seed);
            for (int k = 0; k < 2000; ++k) {
                const uint64_t want = perDrawGeometric(reference, p);
                ASSERT_EQ(sampler.sample(held), want)
                    << "p=" << p << " seed=" << seed << " draw " << k;
                ASSERT_EQ(per_call.nextGeometric(p), want)
                    << "p=" << p << " seed=" << seed << " draw " << k;
            }
            // Each consumed exactly the reference's draws.
            const uint64_t after = reference.next();
            EXPECT_EQ(held.next(), after) << "p=" << p;
            EXPECT_EQ(per_call.next(), after) << "p=" << p;
        }
    }
}

TEST(Rng, GeometricSamplerAtPOneDrawsNothing)
{
    Rng rng(5), untouched(5);
    const GeometricSampler certain(1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(certain.sample(rng), 0u);
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(21);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(DiscreteSampler, RespectsWeights)
{
    Rng rng(23);
    DiscreteSampler sampler({1.0, 3.0, 6.0});
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(DiscreteSampler, SingleOutcome)
{
    Rng rng(29);
    DiscreteSampler sampler({5.0});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled)
{
    Rng rng(31);
    DiscreteSampler sampler({1.0, 0.0, 1.0});
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(ZipfSampler, RankOneMostFrequent)
{
    Rng rng(37);
    ZipfSampler zipf(100, 1.0);
    std::map<size_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[5]);
    EXPECT_GT(counts[5], counts[50]);
}

TEST(ZipfSampler, MatchesTheoreticalHeadMass)
{
    Rng rng(41);
    const size_t n = 1000;
    const double s = 1.0;
    ZipfSampler zipf(n, s);
    // P(rank 0) = 1 / H_n where H_n ~ ln(n) + gamma.
    double h = 0;
    for (size_t k = 1; k <= n; ++k)
        h += 1.0 / static_cast<double>(k);
    int head = 0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i)
        head += zipf.sample(rng) == 0 ? 1 : 0;
    EXPECT_NEAR(head / static_cast<double>(samples), 1.0 / h, 0.01);
}

TEST(ZipfSampler, ZeroExponentIsUniform)
{
    Rng rng(43);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c / static_cast<double>(n), 0.1, 0.01);
}

TEST(ZipfSampler, AllRanksReachable)
{
    Rng rng(47);
    ZipfSampler zipf(5, 0.5);
    std::vector<bool> seen(5, false);
    for (int i = 0; i < 10000; ++i)
        seen[zipf.sample(rng)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

} // namespace
} // namespace ibs
