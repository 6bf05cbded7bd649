/**
 * @file
 * Cycle-exact unit tests for the FetchEngine. Every scenario here is
 * hand-computed from the paper's timing model, so these tests pin the
 * engine to the arithmetic behind Tables 5-8.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/fetch_engine.h"

namespace ibs {
namespace {

/** Base config: 8-KB DM L1, 32-B line, perfect backing at 6c/16B. */
FetchConfig
l2Backed(uint32_t line = 32, uint32_t latency = 6, uint32_t bw = 16)
{
    FetchConfig c;
    c.l1 = CacheConfig{8 * 1024, 1, line};
    c.l1Fill = MemoryTiming{latency, bw};
    c.hasL2 = false;
    return c;
}

TEST(FetchEngine, MissThenHitBlocking)
{
    FetchEngine e(l2Backed());
    e.fetch(0x0);  // Miss: 1 issue cycle + 7 fill cycles.
    e.fetch(0x0);  // Hit: 1 cycle.
    const FetchStats s = e.stats();
    EXPECT_EQ(s.instructions, 2u);
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.stallCyclesL1, 7u);
    EXPECT_EQ(s.stallCyclesL2, 0u);
    EXPECT_EQ(s.cycles, 9u);
    EXPECT_DOUBLE_EQ(s.cpiInstr(), 3.5);
    EXPECT_DOUBLE_EQ(s.mpi100(), 50.0);
}

TEST(FetchEngine, CpiEqualsMpiTimesCpmForBlocking)
{
    // The paper's model: CPIinstr = MPI * CPM. For blocking fills the
    // engine must reproduce it exactly (CPM = 6 + 32/16 - 1 = 7).
    FetchEngine e(l2Backed());
    for (uint64_t a = 0; a < 64 * 1024; a += 4)
        e.fetch(a & (16 * 1024 - 1)); // 16-KB loop in an 8-KB cache.
    const FetchStats s = e.stats();
    const double mpi = static_cast<double>(s.l1Misses) /
        static_cast<double>(s.instructions);
    EXPECT_DOUBLE_EQ(s.cpiInstr(), mpi * 7.0);
}

TEST(FetchEngine, EconomyBaselinePenalty)
{
    // Table 5: 30-cycle latency at 4 B/cycle, 32-B line: CPM = 37.
    FetchConfig c = economyBaseline();
    FetchEngine e(c);
    e.fetch(0x0);
    EXPECT_EQ(e.stats().stallCyclesL1, 37u);
}

TEST(FetchEngine, PrefetchBurstStallsUntilComplete)
{
    // Table 6 model: 32-B line, 1 prefetch: burst 64 B at 16 B/cyc
    // from a 6-cycle L2 = 6 + 4 - 1 = 9 stall cycles; the prefetched
    // line then hits.
    FetchConfig c = l2Backed();
    c.prefetchLines = 1;
    FetchEngine e(c);
    e.fetch(0x0);
    e.fetch(0x20); // Prefetched.
    const FetchStats s = e.stats();
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.stallCyclesL1, 9u);
    EXPECT_EQ(s.prefetchesIssued, 1u);
}

TEST(FetchEngine, PrefetchThreeLines16B)
{
    // 16-B lines + 3 prefetches: burst 64 B = 6 + 4 - 1 = 9 cycles;
    // all four lines land in the cache.
    FetchConfig c = l2Backed(16);
    c.prefetchLines = 3;
    FetchEngine e(c);
    e.fetch(0x0);
    for (uint64_t a = 4; a < 64; a += 4)
        e.fetch(a);
    const FetchStats s = e.stats();
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.stallCyclesL1, 9u);
    EXPECT_EQ(s.instructions, 16u);
    EXPECT_EQ(s.cycles, 16u + 9u);
}

TEST(FetchEngine, BypassResumesAtMissingWord)
{
    // Bypass: miss at offset 0 resumes after the 6-cycle latency
    // instead of the full 7-cycle fill.
    FetchConfig c = l2Backed();
    c.bypass = true;
    FetchEngine e(c);
    e.fetch(0x0);
    EXPECT_EQ(e.stats().stallCyclesL1, 6u);
}

TEST(FetchEngine, BypassMidLineWordWaitsForItsBeat)
{
    // Miss at byte offset 16 in a 32-B line at 16 B/cycle: the word
    // arrives one beat after the latency (stall 7, not 6).
    FetchConfig c = l2Backed();
    c.bypass = true;
    FetchEngine e(c);
    e.fetch(0x10);
    EXPECT_EQ(e.stats().stallCyclesL1, 7u);
}

TEST(FetchEngine, BypassStreamsSequentialFetches)
{
    // 32-B line at 4 B/cycle, latency 6: window is 6+8-1 = 13 cycles.
    // Fetching the line sequentially: the processor consumes one word
    // per cycle while the fill delivers one word per cycle, so after
    // the initial 6-cycle stall the remaining fetches proceed with no
    // further stalls (word k arrives at cycle 7+k, fetched at 7+k).
    FetchConfig c = l2Backed(32, 6, 4);
    c.bypass = true;
    FetchEngine e(c);
    for (uint64_t a = 0; a < 32; a += 4)
        e.fetch(a);
    const FetchStats s = e.stats();
    EXPECT_EQ(s.instructions, 8u);
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.stallCyclesL1, 6u);
    EXPECT_GE(s.bypassHits, 6u);
}

TEST(FetchEngine, BypassFetchOutsideWindowWaitsForRefill)
{
    // Miss at 0x0 (window [1, 14) with 4 B/cycle), then immediately
    // branch far away: the fetch outside the bypass buffers stalls
    // until the refill ends, then misses normally.
    FetchConfig c = l2Backed(32, 6, 4);
    c.bypass = true;
    FetchEngine e(c);
    e.fetch(0x0);    // Issue at cycle 1; resume at 7; end at 14.
    e.fetch(0x4000); // Issue at 8; waits to 14; then misses again.
    const FetchStats s = e.stats();
    EXPECT_EQ(s.l1Misses, 2u);
    // Stall 6 (first miss) + 6 (wait for window end: 14-8) + 6
    // (second miss resume).
    EXPECT_EQ(s.stallCyclesL1, 18u);
}

TEST(FetchEngine, CachePrefetchOnlyIfUsedDropsUnused)
{
    FetchConfig c = l2Backed();
    c.prefetchLines = 1;
    c.bypass = true;
    c.cachePrefetchOnlyIfUsed = true;
    {
        // Case 1: prefetched line never touched during refill ->
        // not cached -> later fetch misses.
        FetchEngine e(c);
        e.fetch(0x0);
        for (int i = 0; i < 50; ++i)
            e.fetch(0x0); // Stay put until the window expires.
        e.fetch(0x20);    // Prefetched but unused: miss.
        EXPECT_EQ(e.stats().l1Misses, 2u);
    }
    {
        // Case 2: touched while in the bypass buffers -> cached.
        FetchEngine e(c);
        e.fetch(0x0);  // Resume at latency 6; window end at 1+9=10.
        e.fetch(0x20); // Cycle 7 < 10: bypass hit, line cached.
        for (int i = 0; i < 50; ++i)
            e.fetch(0x0);
        e.fetch(0x20); // Still cached.
        EXPECT_EQ(e.stats().l1Misses, 1u);
        EXPECT_EQ(e.stats().prefetchesUsed, 1u);
    }
}

TEST(FetchEngine, BypassWindowWiderThan32Lines)
{
    // 4-B L1 lines with a 40-line prefetch burst: the refill window
    // spans 41 lines, so per-line window state needs more than 32
    // mask bits. Before the masks were widened, `1u << 33` aliased
    // line 33 onto line 1 and the pollution-control variant then
    // never cached line 1.
    FetchConfig c = l2Backed(4);
    c.prefetchLines = 40;
    c.bypass = true;
    c.cachePrefetchOnlyIfUsed = true;
    FetchEngine e(c);

    // Miss at 0x0 (cycle 1): burst = 41 * 4 = 164 bytes at 16 B/cyc,
    // window [1, 17); resume at cycle 7.
    e.fetch(0x0);
    // Line index 33 (0x84, cycle 8): word arrives at 1 + 6 + 8 = 15.
    e.fetch(0x84);
    // Line index 1 (0x4, cycle 16 < 17): already arrived, no stall.
    e.fetch(0x4);
    EXPECT_EQ(e.stats().bypassHits, 2u);
    EXPECT_EQ(e.stats().prefetchesUsed, 2u);
    EXPECT_EQ(e.stats().l1Misses, 1u);

    // Run past the window, then revisit both lines: each was used
    // during the refill, so each must have been cached.
    e.fetch(0x2000);
    e.fetch(0x84);
    e.fetch(0x4);
    EXPECT_EQ(e.stats().l1Misses, 2u); // Only 0x0 and 0x2000 missed.
}

TEST(FetchEngine, PipelinedDemandMissLatency)
{
    // Pipelined, 16-B line at 16 B/cycle: demand miss costs exactly
    // the 6-cycle latency.
    FetchConfig c = l2Backed(16);
    c.pipelined = true;
    c.streamBufferLines = 0;
    FetchEngine e(c);
    e.fetch(0x0);
    EXPECT_EQ(e.stats().stallCyclesL1, 6u);
}

TEST(FetchEngine, StreamBufferN1PartiallyCoversSequentialRun)
{
    // N=1 stream buffer on a 256-byte sequential run: the initial
    // miss stalls 6 cycles; line 1 was prefetched right behind the
    // miss and arrives in time; from then on each top-up is issued
    // only when the previous line is consumed (the single slot is
    // occupied until then), so the 6-cycle latency races the 4-cycle
    // consumption and each subsequent line stalls 2 cycles.
    FetchConfig c = l2Backed(16);
    c.pipelined = true;
    c.streamBufferLines = 1;
    FetchEngine e(c);
    for (uint64_t a = 0; a < 256; a += 4)
        e.fetch(a);
    const FetchStats s = e.stats();
    EXPECT_EQ(s.stallCyclesL1, 6u + 14u * 2u);
    EXPECT_EQ(s.l1Misses, 16u);         // One per line at the L1.
    EXPECT_EQ(s.streamBufferHits, 15u); // All but the first.
}

TEST(FetchEngine, StreamBufferN2FullyCoversSequentialRun)
{
    // With two slots the prefetcher runs a full line ahead and the
    // 6-cycle latency hides behind the 2 x 4-cycle consumption: only
    // the initial miss stalls.
    FetchConfig c = l2Backed(16);
    c.pipelined = true;
    c.streamBufferLines = 2;
    FetchEngine e(c);
    for (uint64_t a = 0; a < 256; a += 4)
        e.fetch(a);
    const FetchStats s = e.stats();
    EXPECT_EQ(s.stallCyclesL1, 6u);
    EXPECT_EQ(s.streamBufferHits, 15u);
}

TEST(FetchEngine, StreamBufferHitOnInFlightLineWaits)
{
    // Jump straight to the next line right after the miss: the
    // prefetched line is still in flight and the processor waits for
    // its arrival cycle.
    FetchConfig c = l2Backed(16);
    c.pipelined = true;
    c.streamBufferLines = 2;
    FetchEngine e(c);
    e.fetch(0x0);  // Issue 1; arrival 7; prefetch issue 2,3 -> 8, 9.
    e.fetch(0x10); // Cycle 8: line 0x10 arrives at 8: no stall.
    e.fetch(0x20); // Cycle 9: line 0x20 arrives at 9: no stall.
    const FetchStats s = e.stats();
    EXPECT_EQ(s.stallCyclesL1, 6u);
    EXPECT_EQ(s.streamBufferHits, 2u);
}

TEST(FetchEngine, StreamBufferMissCancelsAndRestarts)
{
    FetchConfig c = l2Backed(16);
    c.pipelined = true;
    c.streamBufferLines = 2;
    FetchEngine e(c);
    e.fetch(0x0);    // Prefetches 0x10, 0x20.
    e.fetch(0x4000); // Miss in both: cancels, restarts at 0x4010.
    e.fetch(0x4010); // Stream-buffer hit.
    const FetchStats s = e.stats();
    EXPECT_EQ(s.l1Misses, 3u);
    EXPECT_EQ(s.streamBufferHits, 1u);
    // Two demand misses at 6 cycles each, plus whatever in-flight
    // wait the restart incurred (its prefetch issued 1 cycle late).
    EXPECT_GE(s.stallCyclesL1, 12u);
    EXPECT_LE(s.stallCyclesL1, 14u);
}

TEST(FetchEngine, TwoLevelDecomposition)
{
    // Real L2: first touch misses both levels. L2 fill (64-B line
    // from 30c/4B memory) = 30 + 16 - 1 = 45 cycles of L2 stall;
    // L1 fill = 7 cycles of L1 stall.
    FetchConfig c = withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    FetchEngine e(c);
    e.fetch(0x0);
    const FetchStats s = e.stats();
    EXPECT_EQ(s.l1Misses, 1u);
    EXPECT_EQ(s.l2Accesses, 1u);
    EXPECT_EQ(s.l2Misses, 1u);
    EXPECT_EQ(s.stallCyclesL2, 45u);
    EXPECT_EQ(s.stallCyclesL1, 7u);
    EXPECT_DOUBLE_EQ(s.l2Cpi(), 45.0);
    EXPECT_DOUBLE_EQ(s.l1Cpi(), 7.0);

    // A second fetch of a different L1 line within the same L2 line
    // hits the L2: only L1 stall accrues.
    e.fetch(0x20);
    EXPECT_EQ(e.stats().l2Misses, 1u);
    EXPECT_EQ(e.stats().stallCyclesL1, 14u);
    EXPECT_EQ(e.stats().stallCyclesL2, 45u);
}

TEST(FetchEngine, PerfectL2NeverStallsL2)
{
    FetchConfig c = withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    c.perfectL2 = true;
    FetchEngine e(c);
    for (uint64_t a = 0; a < 4096; a += 4)
        e.fetch(a);
    EXPECT_EQ(e.stats().stallCyclesL2, 0u);
    EXPECT_EQ(e.stats().l2Accesses, 0u);
}

TEST(FetchEngine, RunConsumesOnlyInstructionRecords)
{
    std::vector<TraceRecord> recs = {
        {0x0, 1, RefKind::InstrFetch},
        {0x1000, 1, RefKind::DataRead},
        {0x4, 1, RefKind::InstrFetch},
        {0x2000, 1, RefKind::DataWrite},
        {0x8, 1, RefKind::InstrFetch},
    };
    VectorTraceStream stream(recs);
    FetchEngine e(l2Backed());
    const FetchStats s = e.run(stream, 100);
    EXPECT_EQ(s.instructions, 3u);
    EXPECT_EQ(s.l1Misses, 1u);
}

TEST(FetchStats, MergeAddsCounters)
{
    FetchStats a, b;
    a.instructions = 100;
    a.stallCyclesL1 = 50;
    a.l1Misses = 10;
    b.instructions = 100;
    b.stallCyclesL1 = 150;
    b.l1Misses = 30;
    a.merge(b);
    EXPECT_EQ(a.instructions, 200u);
    EXPECT_DOUBLE_EQ(a.l1Cpi(), 1.0);
    EXPECT_DOUBLE_EQ(a.mpi100(), 20.0);
}

/** check() must throw std::logic_error naming `identity` and the
 *  config. */
void
expectBroken(const FetchStats &stats, const FetchConfig &config,
             const std::string &identity)
{
    try {
        stats.check(config);
        ADD_FAILURE() << "check() passed; expected: " << identity;
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(identity), std::string::npos) << what;
        EXPECT_NE(what.find(config.toString()), std::string::npos)
            << what;
    }
}

TEST(FetchStats, CheckNamesEachBrokenIdentity)
{
    // A consistent blocking cell with a real L2 and 2-line prefetch:
    // 10 L1 misses, each consulting the L2 three times and stalling
    // for a 96-byte burst at 6 cycles + 16 B/cycle (11 cycles).
    FetchConfig config =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2);
    config.prefetchLines = 2;
    FetchStats good;
    good.instructions = 1000;
    good.stallCyclesL1 = 110;
    good.stallCyclesL2 = 120;
    good.cycles = 1230;
    good.l1Misses = 10;
    good.l2Accesses = 30;
    good.l2Misses = 4;
    good.prefetchesIssued = 20;
    good.prefetchesUsed = 5;
    EXPECT_NO_THROW(good.check(config));

    FetchStats s = good;
    s.cycles += 1;
    expectBroken(s, config,
                 "cycles == instructions + stallCyclesL1 + "
                 "stallCyclesL2");
    s = good;
    s.l2Misses = 31;
    expectBroken(s, config, "l2Misses <= l2Accesses");
    s = good;
    s.l2DataAccesses = 1;
    s.l2DataMisses = 2;
    expectBroken(s, config, "l2DataMisses <= l2DataAccesses");
    s = good;
    s.prefetchesUsed = 21;
    expectBroken(s, config, "prefetchesUsed <= prefetchesIssued");
    s = good;
    s.bypassHits = 1;
    expectBroken(s, config, "bypassHits == 0 without bypass");
    s = good;
    s.streamBufferHits = 1;
    expectBroken(s, config, "streamBufferHits == 0 unless pipelined");
    s = good;
    s.l2Accesses = 29;
    expectBroken(s, config,
                 "l2Accesses == l1Misses * (1 + prefetchLines)");
    s = good;
    s.prefetchesIssued = 19;
    expectBroken(s, config,
                 "prefetchesIssued == l1Misses * prefetchLines");
    s = good;
    s.stallCyclesL1 = 111;
    s.cycles = 1231;
    expectBroken(s, config,
                 "stallCyclesL1 == l1Misses * l1Fill.fillCycles((1 + "
                 "prefetchLines) * l1.lineBytes)");

    // Bypass keeps the L2 and prefetch identities, admits bypass
    // hits, and resumes early, so its L1 stalls follow no per-miss
    // formula.
    FetchConfig bypass = config;
    bypass.bypass = true;
    s = good;
    s.bypassHits = 7;
    s.stallCyclesL1 = 300;
    s.cycles = 1420;
    EXPECT_NO_THROW(s.check(bypass));
    s.prefetchesIssued = 19;
    expectBroken(s, bypass,
                 "prefetchesIssued == l1Misses * prefetchLines");
    s.prefetchesIssued = 20;
    s.l2Accesses = 10;
    expectBroken(s, bypass,
                 "l2Accesses == l1Misses * (1 + prefetchLines)");

    // The pipelined interface prefetches on its own schedule, so its
    // L2 accesses, prefetches and L1 stalls follow no per-miss
    // formula.
    FetchConfig pipe = withOnChipL2(economyBaseline(), 64 * 1024, 64, 2);
    pipe.pipelined = true;
    pipe.streamBufferLines = 4;
    s = good;
    s.l2Accesses = 17;
    s.streamBufferHits = 3;
    EXPECT_NO_THROW(s.check(pipe));

    // Without a real L2 nothing may reach one.
    FetchConfig perfect = config;
    perfect.perfectL2 = true;
    expectBroken(good, perfect, "no L2 accesses without a real L2");
    s = good;
    s.l2Accesses = 0;
    s.l2Misses = 0;
    EXPECT_NO_THROW(s.check(perfect));
    s.l2DataAccesses = 1;
    expectBroken(s, economyBaseline(),
                 "no L2 accesses without a real L2");
}

} // namespace
} // namespace ibs
