/**
 * @file
 * Unit tests for the DECstation 3100 model (Tables 1/3 arithmetic).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/decstation.h"
#include "trace/stream.h"

namespace ibs {
namespace {

DecstationStats
runRecords(const std::vector<TraceRecord> &recs,
           DecstationConfig config = {})
{
    VectorTraceStream stream(recs);
    DecstationModel model(config);
    return model.run(stream, UINT64_MAX);
}

TEST(Decstation, InstructionMissesCostSixCycles)
{
    // Two fetches to different 4-byte lines, then repeats.
    std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x00400000, 1, RefKind::InstrFetch},
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.instructions, 3u);
    EXPECT_EQ(s.icacheMisses, 2u);
    // 4-byte lines: every new word misses.
    EXPECT_NEAR(s.cpiInstr(), 2.0 / 3.0 * 6.0, 1e-12);
}

TEST(Decstation, DataMissesSeparateFromInstr)
{
    std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x10001000, 1, RefKind::DataRead},
        {0x10001000, 1, RefKind::DataRead},
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.icacheMisses, 1u);
    EXPECT_EQ(s.dcacheMisses, 1u);
    EXPECT_DOUBLE_EQ(s.cpiData(), 6.0);
}

TEST(Decstation, TlbMissesChargedOncePerPage)
{
    std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x00401000, 1, RefKind::InstrFetch}, // New page.
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.tlbMisses, 2u);
    EXPECT_DOUBLE_EQ(s.cpiTlb(), 2.0 / 3.0 * 16.0);
}

TEST(Decstation, KernelRefsBypassTlb)
{
    std::vector<TraceRecord> recs = {
        {0x80031940, 0, RefKind::InstrFetch},
        {0x80031944, 0, RefKind::InstrFetch},
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.tlbMisses, 0u);
    EXPECT_EQ(s.userInstructions, 0u);
    EXPECT_DOUBLE_EQ(s.userFraction(), 0.0);
}

TEST(Decstation, WritesNeverMissButCanStall)
{
    // Write-through with a 4-deep buffer draining one write per 6
    // cycles: a burst of 6 back-to-back stores must stall.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 6; ++i)
        recs.push_back({0x10000000 + 4u * i, 1, RefKind::DataWrite});
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.dcacheMisses, 0u);
    EXPECT_GT(s.writeStallCycles, 0u);
}

TEST(Decstation, SpacedWritesDoNotStall)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 20; ++i) {
        recs.push_back({0x10000000 + 4u * i, 1, RefKind::DataWrite});
        for (int j = 0; j < 8; ++j)
            recs.push_back({0x00400000 + 4u * (i * 8 + j), 1,
                            RefKind::InstrFetch});
    }
    const DecstationStats s = runRecords(recs);
    EXPECT_EQ(s.writeStallCycles, 0u);
}

TEST(Decstation, UserFractionTracksAsid1)
{
    std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x80031940, 0, RefKind::InstrFetch},
        {0x0c02a360, 3, RefKind::InstrFetch},
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_DOUBLE_EQ(s.userFraction(), 0.5);
}

TEST(Decstation, TotalIsSumOfComponents)
{
    std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x10001000, 1, RefKind::DataRead},
        {0x10002000, 1, RefKind::DataWrite},
    };
    const DecstationStats s = runRecords(recs);
    EXPECT_DOUBLE_EQ(s.totalMemoryCpi(),
                     s.cpiInstr() + s.cpiData() + s.cpiTlb() +
                     s.cpiWrite());
}

TEST(Decstation, ResetClears)
{
    const std::vector<TraceRecord> recs = {
        {0x00400000, 1, RefKind::InstrFetch}};
    DecstationModel model;
    VectorTraceStream first(recs);
    model.run(first, UINT64_MAX);
    model.reset();
    VectorTraceStream second(recs);
    const DecstationStats s = model.run(second, UINT64_MAX);
    EXPECT_EQ(s.instructions, 1u);
    EXPECT_EQ(s.icacheMisses, 1u); // Cold again after reset.
}

} // namespace
} // namespace ibs
