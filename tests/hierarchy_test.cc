/**
 * @file
 * Unit tests for the two-level hierarchy and inclusion enforcement.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.h"
#include "stats/rng.h"

namespace ibs {
namespace {

CacheConfig
cfg(uint64_t size, uint32_t assoc, uint32_t line)
{
    return CacheConfig{size, assoc, line};
}

TEST(CacheHierarchy, RejectsSmallerL2Lines)
{
    EXPECT_THROW(CacheHierarchy(cfg(1024, 1, 64), cfg(8192, 1, 32),
                                false),
                 std::invalid_argument);
}

TEST(CacheHierarchy, MissPathFillsBothLevels)
{
    CacheHierarchy h(cfg(1024, 1, 32), cfg(8192, 1, 64), false);
    const HierarchyResult first = h.access(0x100);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_FALSE(first.l2Hit);
    const HierarchyResult again = h.access(0x100);
    EXPECT_TRUE(again.l1Hit);
    // Evict from L1 via a conflicting line; L2 still holds it.
    h.access(0x100 + 1024);
    const HierarchyResult back = h.access(0x100);
    EXPECT_FALSE(back.l1Hit);
    EXPECT_TRUE(back.l2Hit);
}

TEST(CacheHierarchy, CountsAreConsistent)
{
    Rng rng(3);
    CacheHierarchy h(cfg(1024, 1, 32), cfg(8192, 2, 64), false);
    for (int i = 0; i < 20000; ++i)
        h.access(rng.nextBounded(1 << 15) & ~3ull);
    EXPECT_EQ(h.accesses(), 20000u);
    EXPECT_GE(h.l1Misses(), h.l2Misses());
    EXPECT_GT(h.l2GlobalMissRatio(), 0.0);
    EXPECT_LE(h.l2LocalMissRatio(), 1.0);
}

TEST(CacheHierarchy, InclusiveModeMaintainsInvariant)
{
    Rng rng(7);
    // A small L2 relative to L1 makes inclusion violations likely
    // without back-invalidation: L1 256 lines, L2 128 lines.
    CacheHierarchy h(cfg(8192, 1, 32), cfg(8192, 1, 64), true);
    for (int i = 0; i < 30000; ++i) {
        h.access(rng.nextBounded(1 << 16) & ~3ull);
        if (i % 1000 == 0) {
            ASSERT_TRUE(h.checkInclusion()) << "at access " << i;
        }
    }
    EXPECT_TRUE(h.checkInclusion());
    EXPECT_GT(h.backInvalidations(), 0u);
}

TEST(CacheHierarchy, NonInclusiveModeViolatesEventually)
{
    Rng rng(7);
    CacheHierarchy h(cfg(8192, 1, 32), cfg(8192, 1, 64), false);
    bool violated = false;
    for (int i = 0; i < 30000 && !violated; ++i) {
        h.access(rng.nextBounded(1 << 16) & ~3ull);
        violated = !h.checkInclusion();
    }
    EXPECT_TRUE(violated);
    EXPECT_EQ(h.backInvalidations(), 0u);
}

TEST(CacheHierarchy, InclusionCostsL1Misses)
{
    // Same stream through inclusive and non-inclusive hierarchies:
    // back-invalidations can only add L1 misses.
    Rng rng(11);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 40000; ++i)
        addrs.push_back(rng.nextBounded(1 << 16) & ~3ull);

    CacheHierarchy incl(cfg(4096, 1, 32), cfg(16384, 1, 64), true);
    CacheHierarchy excl(cfg(4096, 1, 32), cfg(16384, 1, 64), false);
    for (uint64_t a : addrs) {
        incl.access(a);
        excl.access(a);
    }
    EXPECT_GE(incl.l1Misses(), excl.l1Misses());
}

} // namespace
} // namespace ibs
