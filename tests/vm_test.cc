/**
 * @file
 * Unit tests for paging, page allocators and the memory map.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "vm/address_space.h"
#include "vm/page.h"
#include "vm/page_allocator.h"

namespace ibs {
namespace {

TEST(Page, Helpers)
{
    EXPECT_EQ(pageNumber(0), 0u);
    EXPECT_EQ(pageNumber(4095), 0u);
    EXPECT_EQ(pageNumber(4096), 1u);
    EXPECT_EQ(pageOffset(0x1234), 0x234u);
    EXPECT_EQ(makeAddr(3, 0x10), 3 * PAGE_SIZE + 0x10);
}

TEST(Page, Kseg0)
{
    EXPECT_TRUE(isKseg0(0x80000000));
    EXPECT_TRUE(isKseg0(0x9fffffff));
    EXPECT_FALSE(isKseg0(0x7fffffff));
    EXPECT_FALSE(isKseg0(0xa0000000));
    EXPECT_FALSE(isKseg0(0x00400000));
    EXPECT_EQ(kseg0ToPhys(0x80031000), 0x00031000u);
}

TEST(RandomAllocator, FramesInRange)
{
    RandomAllocator alloc(128, 8, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(alloc.allocate(1, i), 128u);
}

TEST(RandomAllocator, DifferentSeedsDiffer)
{
    RandomAllocator a(1 << 16, 8, 1), b(1 << 16, 8, 2);
    int same = 0;
    for (uint64_t i = 0; i < 100; ++i)
        same += a.allocate(1, i) == b.allocate(1, i) ? 1 : 0;
    EXPECT_LT(same, 10);
}

TEST(BinHoppingAllocator, CyclesColors)
{
    BinHoppingAllocator alloc(64, 4, 7);
    std::vector<uint64_t> colors;
    for (uint64_t i = 0; i < 8; ++i)
        colors.push_back(alloc.allocate(1, i) % 4);
    // Consecutive allocations hit consecutive colors.
    for (size_t i = 1; i < colors.size(); ++i)
        EXPECT_EQ(colors[i], (colors[i - 1] + 1) % 4);
}

TEST(BinHoppingAllocator, EvenColorSpread)
{
    BinHoppingAllocator alloc(1024, 8, 3);
    std::vector<int> per_color(8, 0);
    for (uint64_t i = 0; i < 800; ++i)
        ++per_color[alloc.allocate(1, i) % 8];
    for (int c : per_color)
        EXPECT_EQ(c, 100);
}

TEST(PageColoringAllocator, FrameColorMatchesPageColor)
{
    PageColoringAllocator alloc(1024, 8, 5);
    for (uint64_t vpn = 0; vpn < 100; ++vpn)
        EXPECT_EQ(alloc.allocate(1, vpn) % 8, vpn % 8);
}

TEST(MakeAllocator, FactoryProducesNamedPolicies)
{
    auto r = makeAllocator(PagePolicy::Random, 16, 4, 1);
    auto b = makeAllocator(PagePolicy::BinHopping, 16, 4, 1);
    auto c = makeAllocator(PagePolicy::PageColoring, 16, 4, 1);
    EXPECT_EQ(r->name(), "random");
    EXPECT_EQ(b->name(), "bin-hopping");
    EXPECT_EQ(c->name(), "page-coloring");
    EXPECT_STREQ(policyName(PagePolicy::Random), "random");
    EXPECT_STREQ(policyName(PagePolicy::BinHopping), "bin-hopping");
    EXPECT_STREQ(policyName(PagePolicy::PageColoring),
                 "page-coloring");
}

TEST(MemoryMap, TranslationIsStable)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 1024, 8, 42));
    const uint64_t p1 = map.translate(1, 0x00400123);
    const uint64_t p2 = map.translate(1, 0x00400123);
    EXPECT_EQ(p1, p2);
    // Same page, different offset.
    const uint64_t p3 = map.translate(1, 0x00400456);
    EXPECT_EQ(pageNumber(p1), pageNumber(p3));
    EXPECT_EQ(pageOffset(p3), 0x456u);
}

TEST(MemoryMap, AsidsAreIndependent)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 1 << 16, 8, 42));
    const uint64_t pa = map.translate(1, 0x00400000);
    const uint64_t pb = map.translate(2, 0x00400000);
    // Random frames for two tasks at the same VA (collision is
    // astronomically unlikely in a 64K-frame pool).
    EXPECT_NE(pa, pb);
}

TEST(MemoryMap, Kseg0BypassesTables)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 1024, 8, 42));
    EXPECT_EQ(map.translate(0, 0x80031940), 0x00031940u);
}

TEST(MemoryMap, CountsFaultsOncePerPage)
{
    // One frame per page: a second touch of a page reuses its frame,
    // and the next page faults in a frame of its own.
    MemoryMap map(makeAllocator(PagePolicy::Random, 1024, 8, 42));
    const uint64_t first = map.translate(1, 0x00400000);
    const uint64_t same_page = map.translate(1, 0x00400ffc);
    const uint64_t next_page = map.translate(1, 0x00401000);
    EXPECT_EQ(pageNumber(same_page), pageNumber(first));
    EXPECT_NE(pageNumber(next_page), pageNumber(first));
}

} // namespace
} // namespace ibs
