/**
 * @file
 * Unit tests for the Three-Cs miss classifier.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/three_c.h"
#include "flat_trace.h"
#include "sim/runner.h"
#include "stats/rng.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

TEST(ThreeC, ColdStreamIsAllCompulsory)
{
    ThreeCClassifier c(1024, 32);
    for (uint64_t a = 0; a < 512; a += 32)
        c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.accesses, 16u);
    EXPECT_EQ(b.compulsory, 16u);
    EXPECT_EQ(b.capacity, 0u);
    EXPECT_EQ(b.conflict, 0u);
}

TEST(ThreeC, RepeatedFitIsNoMiss)
{
    ThreeCClassifier c(1024, 32);
    for (int round = 0; round < 3; ++round)
        for (uint64_t a = 0; a < 512; a += 32)
            c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.total(), 16u); // Only the cold pass.
}

TEST(ThreeC, PingPongIsConflict)
{
    // Two lines mapping to the same direct-mapped set, alternating:
    // the 8-way proxy holds both, the DM cache ping-pongs.
    ThreeCClassifier c(1024, 32, 1, 8);
    for (int i = 0; i < 100; ++i) {
        c.access(0x0);
        c.access(0x400);
    }
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.compulsory, 2u);
    EXPECT_EQ(b.capacity, 0u);
    EXPECT_GT(b.conflict, 150u);
}

TEST(ThreeC, CyclicOverflowIsCapacity)
{
    // Cycle over 2x the cache in lines: both DM and 8-way LRU miss
    // every access after warmup -> capacity dominates.
    ThreeCClassifier c(1024, 32, 1, 8);
    for (int round = 0; round < 10; ++round)
        for (uint64_t a = 0; a < 2048; a += 32)
            c.access(a);
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_EQ(b.compulsory, 64u);
    EXPECT_GT(b.capacity, 500u);
}

TEST(ThreeC, Mpi100Arithmetic)
{
    ThreeCClassifier c(1024, 32);
    for (uint64_t a = 0; a < 32 * 10; a += 32)
        c.access(a); // 10 compulsory misses in 10 accesses.
    const ThreeCBreakdown b = c.breakdown();
    EXPECT_DOUBLE_EQ(b.totalMpi100(), 100.0);
    EXPECT_DOUBLE_EQ(b.compulsoryMpi100(), 100.0);
    EXPECT_DOUBLE_EQ(b.capacityMpi100(), 0.0);
}

TEST(ThreeC, ComponentsSumToClassifiedMisses)
{
    // A spread-out stream where direct-mapped conflicts genuinely
    // dominate (working set ~16 KB scattered over 256 KB in a 4-KB
    // cache): the proxy misses less than the DM cache and the three
    // components exactly reconstruct the DM miss count.
    Rng rng(5);
    ThreeCClassifier c(4096, 32);
    std::vector<uint64_t> hot;
    for (int i = 0; i < 64; ++i)
        hot.push_back(rng.nextBounded(1 << 18) & ~31ull);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t base = hot[rng.nextBounded(hot.size())];
        for (uint64_t o = 0; o < 64; o += 4)
            c.access(base + o);
    }
    const ThreeCBreakdown b = c.breakdown();
    // conflict = DM - proxy, capacity = proxy - compulsory, so the
    // three components reconstruct the measured cache's misses.
    EXPECT_GE(c.measuredMisses(), c.proxyMisses());
    EXPECT_EQ(b.total(), c.measuredMisses());
    EXPECT_GT(b.conflict, 0u);
}

TEST(ThreeC, AccessRunOverRunsEqualsPerAddressAccess)
{
    // fig1's replay: 32-byte runs fed whole, one piece per run,
    // against the flat per-address loop it replaced. Each run lies
    // in one line of either classifier line size.
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach),
        makeSpec(SpecBenchmark::Espresso)};
    const SuiteTraces traces(specs, 30000);
    for (size_t w = 0; w < traces.count(); ++w) {
        const std::vector<uint64_t> addrs = flatTrace(specs[w], 30000);
        for (uint32_t line : {32u, 64u}) {
            for (uint64_t kb : {1u, 8u, 64u}) {
                const std::string label = traces.name(w) + "/" +
                    std::to_string(kb) + "KB/line" +
                    std::to_string(line);
                ThreeCClassifier runs(kb * 1024, line, 1, 8);
                for (const FetchRun &run : traces.runTrace(w, 32).runs)
                    runs.accessRun(run.startVaddr, run.count);
                ThreeCClassifier flat(kb * 1024, line, 1, 8);
                for (uint64_t addr : addrs)
                    flat.access(addr);

                const ThreeCBreakdown a = runs.breakdown();
                const ThreeCBreakdown b = flat.breakdown();
                EXPECT_EQ(a.accesses, b.accesses) << label;
                EXPECT_EQ(a.compulsory, b.compulsory) << label;
                EXPECT_EQ(a.capacity, b.capacity) << label;
                EXPECT_EQ(a.conflict, b.conflict) << label;
                EXPECT_EQ(runs.measuredMisses(), flat.measuredMisses())
                    << label;
                EXPECT_EQ(runs.proxyMisses(), flat.proxyMisses())
                    << label;
            }
        }
    }
}

} // namespace
} // namespace ibs
