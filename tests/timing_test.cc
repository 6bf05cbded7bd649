/**
 * @file
 * Unit tests for the memory timing arithmetic and the pipelined
 * port. The fill
 * arithmetic here is load-bearing for every table in the paper; the
 * Table 5 worked example (12 + 1 + 1 + 1 = 15 cycles) is pinned
 * explicitly.
 */

#include <gtest/gtest.h>

#include "mem/timing.h"

namespace ibs {
namespace {

TEST(MemoryTiming, PaperWorkedExample)
{
    // "a system with a 12-cycle latency and a bandwidth of 8
    //  bytes/cycle ... filling a 32-byte line would require
    //  12+1+1+1 = 15 cycles."
    const MemoryTiming t{12, 8};
    EXPECT_EQ(t.fillCycles(32), 15u);
}

TEST(MemoryTiming, EconomyBaselineFill)
{
    // 30-cycle latency, 4 B/cycle, 32-byte line: 30 + 7 = 37.
    const MemoryTiming t{30, 4};
    EXPECT_EQ(t.fillCycles(32), 37u);
}

TEST(MemoryTiming, OnChipL2Fill)
{
    // 6-cycle latency, 16 B/cycle: a 32-byte line takes 7 cycles —
    // the penalty behind the paper's L1 CPIinstr of 0.34.
    const MemoryTiming t{6, 16};
    EXPECT_EQ(t.fillCycles(32), 7u);
    EXPECT_EQ(t.fillCycles(16), 6u);
    EXPECT_EQ(t.fillCycles(64), 9u);
}

TEST(MemoryTiming, BeatsRoundUp)
{
    const MemoryTiming t{10, 16};
    EXPECT_EQ(t.beats(1), 1u);
    EXPECT_EQ(t.beats(16), 1u);
    EXPECT_EQ(t.beats(17), 2u);
    EXPECT_EQ(t.beats(0), 0u);
    EXPECT_EQ(t.fillCycles(0), 10u);
}

TEST(MemoryTiming, CyclesToWordStreamsInOrder)
{
    const MemoryTiming t{6, 16};
    EXPECT_EQ(t.cyclesToWord(0), 6u);
    EXPECT_EQ(t.cyclesToWord(12), 6u);
    EXPECT_EQ(t.cyclesToWord(16), 7u);
    EXPECT_EQ(t.cyclesToWord(60), 9u);
}

TEST(MemoryTiming, ToString)
{
    EXPECT_EQ((MemoryTiming{30, 4}).toString(), "30cyc/4Bpc");
}

TEST(PipelinedPort, OneRequestPerCycle)
{
    PipelinedPort port(MemoryTiming{6, 16});
    uint64_t issued;
    // Three requests all asked at cycle 5: issue at 5, 6, 7.
    EXPECT_EQ(port.request(5, &issued), 11u);
    EXPECT_EQ(issued, 5u);
    EXPECT_EQ(port.request(5, &issued), 12u);
    EXPECT_EQ(issued, 6u);
    EXPECT_EQ(port.request(5, &issued), 13u);
    EXPECT_EQ(issued, 7u);
    // A later request issues immediately.
    EXPECT_EQ(port.request(100, &issued), 106u);
    EXPECT_EQ(issued, 100u);
    EXPECT_EQ(port.requests(), 4u);
}

TEST(PipelinedPort, FirstRequestAtCycleZero)
{
    PipelinedPort port(MemoryTiming{6, 16});
    uint64_t issued;
    EXPECT_EQ(port.request(0, &issued), 6u);
    EXPECT_EQ(issued, 0u);
}

} // namespace
} // namespace ibs
