/**
 * @file
 * Unit tests for trace records and the in-memory record stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/record.h"
#include "trace/stream.h"

namespace ibs {
namespace {

std::vector<TraceRecord>
sampleRecords()
{
    return {
        {0x00400000, 1, RefKind::InstrFetch},
        {0x00400004, 1, RefKind::InstrFetch},
        {0x30001000, 1, RefKind::DataRead},
        {0x80031000, 0, RefKind::InstrFetch},
        {0x30001004, 1, RefKind::DataWrite},
        {0x00400008, 1, RefKind::InstrFetch},
    };
}

TEST(TraceRecord, Predicates)
{
    TraceRecord instr{0x1000, 1, RefKind::InstrFetch};
    TraceRecord load{0x1000, 1, RefKind::DataRead};
    TraceRecord store{0x1000, 1, RefKind::DataWrite};
    EXPECT_TRUE(instr.isInstr());
    EXPECT_FALSE(instr.isData());
    EXPECT_FALSE(instr.isWrite());
    EXPECT_TRUE(load.isData());
    EXPECT_FALSE(load.isWrite());
    EXPECT_TRUE(store.isData());
    EXPECT_TRUE(store.isWrite());
}

TEST(VectorTraceStream, ProducesAllThenEnds)
{
    VectorTraceStream s(sampleRecords());
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (s.next(rec))
        out.push_back(rec);
    EXPECT_TRUE(out == sampleRecords());
    EXPECT_FALSE(s.next(rec));
}

} // namespace
} // namespace ibs
