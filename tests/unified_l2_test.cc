/**
 * @file
 * Unit tests for the unified-L2 mode of the fetch engine.
 */

#include <gtest/gtest.h>

#include "core/fetch_engine.h"

namespace ibs {
namespace {

FetchConfig
unifiedConfig()
{
    FetchConfig c = withOnChipL2(economyBaseline(), 4 * 1024, 64, 1);
    c.l2Unified = true;
    return c;
}

TEST(UnifiedL2, DataTouchCountsButDoesNotStall)
{
    FetchEngine engine(unifiedConfig());
    engine.dataTouch(0x30000000);
    engine.dataTouch(0x30000000);
    const FetchStats s = engine.stats();
    EXPECT_EQ(s.l2DataAccesses, 2u);
    EXPECT_EQ(s.l2DataMisses, 1u);
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.stallCyclesL1, 0u);
    EXPECT_EQ(s.stallCyclesL2, 0u);
}

TEST(UnifiedL2, DataEvictsInstructionLines)
{
    // 4-KB DM L2, 64-B lines. Install an instruction line, touch a
    // conflicting data line, and the next fetch misses the L2 again.
    FetchConfig c = unifiedConfig();
    FetchEngine engine(c);

    engine.fetch(0x0);      // L2 miss + L1 miss.
    engine.fetch(0x0);      // Hits everywhere.
    const uint64_t l2_misses_before = engine.stats().l2Misses;

    engine.dataTouch(0x1000);        // Conflicts in a 4-KB DM L2.
    engine.fetch(0x8000);            // Evict the L1 line at set 0...
    engine.fetch(0x0);               // ...so this re-probes the L2.
    EXPECT_GT(engine.stats().l2Misses, l2_misses_before);
}

TEST(UnifiedL2, DisabledModeIgnoresDataTouch)
{
    FetchConfig c = withOnChipL2(economyBaseline(), 4 * 1024, 64, 1);
    c.l2Unified = false;
    FetchEngine engine(c);
    engine.dataTouch(0x30000000);
    EXPECT_EQ(engine.stats().l2DataAccesses, 0u);
}

TEST(UnifiedL2, RunConsumesDataRecords)
{
    std::vector<TraceRecord> recs = {
        {0x0, 1, RefKind::InstrFetch},
        {0x30000000, 1, RefKind::DataRead},
        {0x30000040, 1, RefKind::DataWrite},
        {0x4, 1, RefKind::InstrFetch},
    };
    VectorTraceStream stream(recs);
    FetchEngine engine(unifiedConfig());
    const FetchStats s = engine.run(stream, 100);
    EXPECT_EQ(s.instructions, 2u);
    EXPECT_EQ(s.l2DataAccesses, 2u);
}

TEST(UnifiedL2, PollutionNeverHelps)
{
    // Property: on any interleaved stream, unified-L2 instruction
    // CPI >= instruction-only CPI.
    std::vector<TraceRecord> recs;
    uint64_t pc = 0;
    for (int i = 0; i < 40000; ++i) {
        recs.push_back({pc, 1, RefKind::InstrFetch});
        pc = (pc + 4) % (16 * 1024);
        if (i % 3 == 0)
            recs.push_back({0x30000000ull + (i * 64) % (32 * 1024),
                            1, RefKind::DataRead});
    }
    FetchConfig ionly = withOnChipL2(economyBaseline(), 8 * 1024,
                                     64, 1);
    FetchConfig unified = ionly;
    unified.l2Unified = true;

    VectorTraceStream s1(recs), s2(recs);
    FetchEngine e1(ionly), e2(unified);
    const FetchStats r1 = e1.run(s1, UINT64_MAX);
    const FetchStats r2 = e2.run(s2, UINT64_MAX);
    EXPECT_GE(r2.cpiInstr(), r1.cpiInstr());
    EXPECT_GE(r2.l2Misses, r1.l2Misses);
}

} // namespace
} // namespace ibs
