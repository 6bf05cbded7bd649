/**
 * @file
 * Unit tests for the sub-block (sector) cache.
 */

#include <gtest/gtest.h>

#include "cache/subblock.h"

namespace ibs {
namespace {

CacheConfig
cfg(uint64_t size, uint32_t assoc, uint32_t line)
{
    return CacheConfig{size, assoc, line};
}

TEST(SubBlockCache, RejectsBadSubBlockSize)
{
    EXPECT_THROW(SubBlockCache(cfg(1024, 1, 64), 24),
                 std::invalid_argument);
    EXPECT_THROW(SubBlockCache(cfg(1024, 1, 64), 0),
                 std::invalid_argument);
    EXPECT_NO_THROW(SubBlockCache(cfg(1024, 1, 64), 16));
}

TEST(SubBlockCache, FillsFromMissToEndOfLine)
{
    // 64-byte lines, 16-byte sub-blocks (the paper's §5.2 config).
    SubBlockCache c(cfg(1024, 1, 64), 16);
    // Miss at sub-block 1 of 4: fills sub-blocks 1..3 (3 units).
    const SubBlockResult r = c.access(0x10);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.tagMiss);
    EXPECT_EQ(r.filled, 3u);
    // Sub-blocks 1..3 now hit.
    EXPECT_TRUE(c.access(0x10).hit);
    EXPECT_TRUE(c.access(0x20).hit);
    EXPECT_TRUE(c.access(0x3c).hit);
    // Sub-block 0 was *not* filled.
    const SubBlockResult r0 = c.access(0x0);
    EXPECT_FALSE(r0.hit);
    EXPECT_FALSE(r0.tagMiss); // Line present, sub-block absent.
    EXPECT_EQ(r0.filled, 1u); // Only sub-block 0 transfers.
}

TEST(SubBlockCache, RefillsOnlyInvalidSubBlocks)
{
    SubBlockCache c(cfg(1024, 1, 64), 16);
    c.access(0x20); // Fills sub-blocks 2,3.
    const SubBlockResult r = c.access(0x0);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.tagMiss);
    // Only 0 and 1 are newly transferred.
    EXPECT_EQ(r.filled, 2u);
}

TEST(SubBlockCache, MissAtLineStartFillsWholeLine)
{
    SubBlockCache c(cfg(1024, 1, 64), 16);
    const SubBlockResult r = c.access(0x40);
    EXPECT_TRUE(r.tagMiss);
    EXPECT_EQ(r.filled, 4u);
}

TEST(SubBlockCache, EvictionClearsValidBits)
{
    SubBlockCache c(cfg(1024, 1, 64), 16);
    c.access(0x0);          // Line 0, fills all.
    c.access(0x400);        // Conflicts in 1-KB DM: evicts line 0.
    const SubBlockResult r = c.access(0x20);
    EXPECT_TRUE(r.tagMiss); // Fully gone...
    EXPECT_EQ(r.filled, 2u); // ...so only sub-blocks 2..3 return,
    EXPECT_FALSE(c.access(0x0).hit); // and sub-block 0 still misses.
}

TEST(SubBlockCache, CountsTransfers)
{
    SubBlockCache c(cfg(1024, 1, 64), 16);
    c.access(0x0);   // 4 sub-blocks.
    c.access(0x40);  // 4 sub-blocks.
    c.access(0x0);   // Hit.
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.tagMisses(), 2u);
    EXPECT_EQ(c.subBlocksFilled(), 8u);
}

TEST(SubBlockCache, LruAcrossWays)
{
    SubBlockCache c(cfg(1024, 2, 64), 16);
    c.access(0x0);
    c.access(0x400);
    c.access(0x0);    // Touch.
    c.access(0x800);  // Evicts 0x400.
    EXPECT_TRUE(c.access(0x0).hit);
    EXPECT_TRUE(c.access(0x800).hit);
    EXPECT_TRUE(c.access(0x400).tagMiss);
}

TEST(SubBlockCache, SubBlockEqualLineDegeneratesToNormalCache)
{
    SubBlockCache c(cfg(1024, 1, 32), 32);
    EXPECT_EQ(c.subBlocksPerLine(), 1u);
    const SubBlockResult r = c.access(0x0);
    EXPECT_TRUE(r.tagMiss);
    EXPECT_EQ(r.filled, 1u);
    EXPECT_TRUE(c.access(0x1c).hit);
}

} // namespace
} // namespace ibs
