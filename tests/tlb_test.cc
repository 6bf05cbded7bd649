/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"
#include "tlb/tlb.h"
#include "vm/page.h"

namespace ibs {
namespace {

TlbConfig
cfg(uint32_t entries, uint32_t assoc, bool kseg0 = true)
{
    return TlbConfig{
        .entries = entries, .assoc = assoc, .kseg0Bypasses = kseg0};
}

TEST(TlbConfig, Validation)
{
    EXPECT_NO_THROW(cfg(64, 64).validate());
    EXPECT_NO_THROW(cfg(64, 4).validate());
    EXPECT_THROW(cfg(0, 1).validate(), std::invalid_argument);
    EXPECT_THROW(cfg(64, 5).validate(), std::invalid_argument);
    EXPECT_THROW(cfg(96, 8).validate(), std::invalid_argument);
    EXPECT_EQ(cfg(64, 4).numSets(), 16u);
    EXPECT_EQ(cfg(64, 64).toString(), "64-entry/64-way");
}

TEST(Tlb, MissThenHitSamePage)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_FALSE(tlb.access(1, 0x00400000));
    EXPECT_TRUE(tlb.access(1, 0x00400ffc)); // Same 4-KB page.
    EXPECT_FALSE(tlb.access(1, 0x00401000)); // Next page.
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, AsidTagged)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_FALSE(tlb.access(1, 0x00400000));
    // Same VA, different task: separate mapping.
    EXPECT_FALSE(tlb.access(2, 0x00400000));
    EXPECT_TRUE(tlb.access(1, 0x00400000));
    EXPECT_TRUE(tlb.access(2, 0x00400000));
    // The ASID sits above bit 48 of the entry key, so a translated
    // address there is rejected rather than aliased.
    EXPECT_THROW(tlb.access(1, uint64_t{1} << 48), std::out_of_range);
}

TEST(Tlb, Kseg0Bypass)
{
    Tlb tlb(cfg(64, 64));
    EXPECT_TRUE(tlb.access(0, 0x80031000));
    EXPECT_EQ(tlb.accesses(), 0u); // Not even counted.
    EXPECT_TRUE(tlb.contains(0, 0x80031000));
}

TEST(Tlb, Kseg0BypassDisabled)
{
    Tlb tlb(cfg(64, 64, false));
    EXPECT_FALSE(tlb.access(0, 0x80031000));
    EXPECT_TRUE(tlb.access(0, 0x80031ffc));
    EXPECT_EQ(tlb.accesses(), 2u);
}

TEST(Tlb, LruReplacementInFullTlb)
{
    Tlb tlb(cfg(4, 4));
    for (uint64_t p = 0; p < 4; ++p)
        tlb.access(1, p * PAGE_SIZE);
    // Touch page 0, insert page 4: page 1 (LRU) evicted.
    EXPECT_TRUE(tlb.access(1, 0));
    EXPECT_FALSE(tlb.access(1, 4 * PAGE_SIZE));
    EXPECT_TRUE(tlb.contains(1, 0));
    EXPECT_FALSE(tlb.contains(1, PAGE_SIZE));
}

TEST(Tlb, SetAssociativeIndexing)
{
    // 8 entries, 2-way: 4 sets; pages 4 apart share a set.
    Tlb tlb(cfg(8, 2));
    EXPECT_FALSE(tlb.access(1, 0));
    EXPECT_FALSE(tlb.access(1, 4 * PAGE_SIZE));
    EXPECT_FALSE(tlb.access(1, 8 * PAGE_SIZE)); // Evicts page 0.
    EXPECT_FALSE(tlb.access(1, 0));
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(Tlb, FlushAllAndResetStats)
{
    Tlb tlb(cfg(64, 64));
    tlb.access(1, 0);
    tlb.flushAll();
    EXPECT_FALSE(tlb.contains(1, 0));
    EXPECT_GT(tlb.accesses(), 0u);
    tlb.resetStats();
    EXPECT_EQ(tlb.accesses(), 0u);
    EXPECT_DOUBLE_EQ(tlb.missRatio(), 0.0);
}

TEST(Tlb, R2000ReachIs256KB)
{
    // 64 entries x 4-KB pages: sequential touch of 256 KB fits; the
    // next page past that evicts the first.
    Tlb tlb(cfg(64, 64));
    for (uint64_t p = 0; p < 64; ++p)
        tlb.access(1, p * PAGE_SIZE);
    for (uint64_t p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.contains(1, p * PAGE_SIZE));
    tlb.access(1, 64 * PAGE_SIZE);
    EXPECT_FALSE(tlb.contains(1, 0));
}

TEST(Tlb, LargerFullyAssociativeLruNeverMissesMore)
{
    // Mattson inclusion: on one stream a larger fully-associative LRU
    // TLB holds a superset of a smaller one's entries, so its misses
    // never increase with size (ablation_tlb checks the same on every
    // pass). A seeded stream with a hot set of pages, two ASIDs and
    // some kseg0 references.
    std::vector<Tlb> tlbs;
    for (uint32_t entries : {16u, 32u, 64u, 128u, 256u})
        tlbs.emplace_back(cfg(entries, entries));
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t page = rng.nextBool(0.7) ? rng.nextBounded(48)
                                                : rng.nextBounded(1024);
        const Asid asid = static_cast<Asid>(rng.nextBounded(3));
        const uint64_t vaddr = asid == KERNEL_ASID
            ? 0x80000000 + page * PAGE_SIZE
            : page * PAGE_SIZE + rng.nextBounded(PAGE_SIZE);
        for (Tlb &tlb : tlbs)
            tlb.access(asid, vaddr);
    }
    for (size_t k = 1; k < tlbs.size(); ++k)
        EXPECT_LE(tlbs[k].misses(), tlbs[k - 1].misses())
            << tlbs[k].config().toString();
    // Not vacuous: the sizes straddle the working set.
    EXPECT_GT(tlbs.front().misses(), 2 * tlbs.back().misses());
}

} // namespace
} // namespace ibs
