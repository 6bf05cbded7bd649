/**
 * @file
 * Parameterized property tests over the FetchEngine: invariants that
 * must hold for *every* configuration and workload, independent of
 * calibration. These catch accounting bugs (negative stalls, cycles
 * that don't add up, optimizations that somehow lose instructions).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/fetch_engine.h"
#include "flat_trace.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

/** A fixed shared trace so every property test sees the same work. */
const std::vector<uint64_t> &
sharedTrace()
{
    static const std::vector<uint64_t> trace =
        flatTrace(makeIbs(IbsBenchmark::Gs, OsType::Mach), 150000);
    return trace;
}

FetchStats
runTrace(const FetchConfig &config)
{
    FetchEngine engine(config);
    for (uint64_t addr : sharedTrace())
        engine.fetch(addr);
    return engine.stats();
}

void
checkBasicInvariants(const FetchStats &s)
{
    EXPECT_EQ(s.instructions, sharedTrace().size());
    // Cycles = instructions + stalls, exactly.
    EXPECT_EQ(s.cycles, s.instructions + s.stallCyclesL1 +
                        s.stallCyclesL2);
    EXPECT_GE(s.cpiInstr(), 0.0);
    EXPECT_LE(s.l2Misses, s.l2Accesses);
}

/** Sweep: prefetch depth x line size (the Table 6 grid). */
class PrefetchGrid
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(PrefetchGrid, InvariantsAndBounds)
{
    const auto [lines, line_size] = GetParam();
    FetchConfig c;
    c.l1 = CacheConfig{8 * 1024, 1, line_size};
    c.l1Fill = MemoryTiming{6, 16};
    c.prefetchLines = lines;
    const FetchStats s = runTrace(c);
    checkBasicInvariants(s);
    // Prefetching cannot make MPI worse than ~the no-prefetch MPI
    // (it only adds lines); it can add stall cycles though.
    FetchConfig base = c;
    base.prefetchLines = 0;
    const FetchStats b = runTrace(base);
    EXPECT_LE(s.l1Misses, b.l1Misses);
    EXPECT_EQ(s.prefetchesIssued, s.l1Misses * lines);
}

INSTANTIATE_TEST_SUITE_P(
    Table6Grid, PrefetchGrid,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(16u, 32u, 64u)));

/** Bypass never hurts: same misses, never more stall cycles. */
class BypassSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BypassSweep, BypassReducesStalls)
{
    const uint32_t prefetch = GetParam();
    FetchConfig blocking;
    blocking.l1 = CacheConfig{8 * 1024, 1, 32};
    blocking.l1Fill = MemoryTiming{6, 16};
    blocking.prefetchLines = prefetch;

    FetchConfig bypass = blocking;
    bypass.bypass = true;

    const FetchStats sb = runTrace(blocking);
    const FetchStats sp = runTrace(bypass);
    checkBasicInvariants(sp);
    EXPECT_LE(sp.stallCyclesL1, sb.stallCyclesL1);
    EXPECT_EQ(sp.l1Misses, sb.l1Misses);
}

INSTANTIATE_TEST_SUITE_P(PrefetchDepths, BypassSweep,
                         ::testing::Values(0u, 1u, 2u, 3u));

/** Stream buffer: deeper buffers never increase CPIinstr. */
class StreamBufferSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(StreamBufferSweep, MonotoneImprovement)
{
    const uint32_t lines = GetParam();
    FetchConfig c;
    c.l1 = CacheConfig{8 * 1024, 1, 16};
    c.l1Fill = MemoryTiming{6, 16};
    c.pipelined = true;
    c.streamBufferLines = lines;
    const FetchStats s = runTrace(c);
    checkBasicInvariants(s);

    if (lines > 0) {
        FetchConfig shallower = c;
        shallower.streamBufferLines = lines / 2;
        const FetchStats s2 = runTrace(shallower);
        EXPECT_LE(s.stallCyclesL1,
                  s2.stallCyclesL1 + s2.stallCyclesL1 / 20);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, StreamBufferSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 6u, 12u,
                                           18u));

/** Two-level configs: L1/L2 decomposition is consistent. */
class TwoLevelSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>>
{
};

TEST_P(TwoLevelSweep, DecompositionConsistent)
{
    const auto [l2_size, l2_assoc] = GetParam();
    FetchConfig c = withOnChipL2(economyBaseline(), l2_size, 64,
                                 l2_assoc);
    const FetchStats s = runTrace(c);
    checkBasicInvariants(s);
    EXPECT_GT(s.l2Accesses, 0u);
    // Every L1 miss consults the L2 exactly once (no prefetching).
    EXPECT_EQ(s.l2Accesses, s.l1Misses);
    // L2 stall cycles = L2 misses x the L2 fill penalty (45 cycles
    // for a 64-B line from 30c/4B memory).
    EXPECT_EQ(s.stallCyclesL2, s.l2Misses * 45u);
    // A perfect L2 variant is a strict lower bound.
    FetchConfig perfect = c;
    perfect.perfectL2 = true;
    const FetchStats p = runTrace(perfect);
    EXPECT_LE(p.cpiInstr(), s.cpiInstr());
    EXPECT_EQ(p.stallCyclesL1, s.stallCyclesL1);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TwoLevelSweep,
    ::testing::Combine(::testing::Values(16u * 1024, 64u * 1024,
                                         256u * 1024),
                       ::testing::Values(1u, 2u, 8u)));

/** Bandwidth sweep (Figure 6): more bandwidth never hurts. */
class BandwidthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BandwidthSweep, MoreBandwidthNeverHurts)
{
    const uint32_t bw = GetParam();
    FetchConfig c;
    c.l1 = CacheConfig{8 * 1024, 1, 32};
    c.l1Fill = MemoryTiming{6, bw};
    const FetchStats s = runTrace(c);
    checkBasicInvariants(s);
    if (bw > 4) {
        FetchConfig half = c;
        half.l1Fill.bytesPerCycle = bw / 2;
        EXPECT_LE(s.stallCyclesL1, runTrace(half).stallCyclesL1);
    }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandwidthSweep,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

} // namespace
} // namespace ibs
