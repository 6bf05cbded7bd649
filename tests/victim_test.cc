/**
 * @file
 * Unit tests for the victim cache.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/victim.h"
#include "stats/rng.h"

namespace ibs {
namespace {

CacheConfig
cfg(uint64_t size = 1024, uint32_t assoc = 1, uint32_t line = 32)
{
    return CacheConfig{size, assoc, line};
}

TEST(VictimCache, MainHitPath)
{
    VictimCache c(cfg(), 4);
    EXPECT_EQ(c.access(0x0), 2); // Cold miss.
    EXPECT_EQ(c.access(0x0), 0); // Main hit.
    EXPECT_EQ(c.mainHits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(VictimCache, CatchesDirectMappedPingPong)
{
    // Two conflicting lines alternate: after the cold misses, every
    // access hits in the victim buffer instead of missing.
    VictimCache c(cfg(), 4);
    EXPECT_EQ(c.access(0x0), 2);
    EXPECT_EQ(c.access(0x400), 2);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(c.access(0x0), 1) << i;
        EXPECT_EQ(c.access(0x400), 1) << i;
    }
    EXPECT_EQ(c.victimHits(), 20u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(VictimCache, CapacityBoundsProtection)
{
    // Five lines cycling through one set with a 2-line victim buffer:
    // the buffer is too small to break the cycle.
    VictimCache c(cfg(), 2);
    uint64_t victim_hits_before = 0;
    for (int round = 0; round < 5; ++round) {
        for (uint64_t k = 0; k < 5; ++k)
            c.access(k * 1024);
    }
    // With an LRU-ordered cycle of 5 distinct lines and only 1+2
    // slots, most accesses must still miss.
    EXPECT_GT(c.misses(), 15u);
    (void)victim_hits_before;
}

TEST(VictimCache, ZeroVictimLinesIsPlainCache)
{
    VictimCache c(cfg(), 0);
    c.access(0x0);
    c.access(0x400);
    EXPECT_EQ(c.access(0x0), 2);
    EXPECT_EQ(c.victimHits(), 0u);
}

TEST(VictimCache, NeverWorseThanPlainOnRandomStream)
{
    // Property: victim-buffer full misses <= plain direct-mapped
    // misses on the same stream.
    Rng rng(31);
    std::vector<uint64_t> addrs;
    uint64_t pc = 0;
    for (int i = 0; i < 40000; ++i) {
        if (rng.nextBool(0.3))
            pc = rng.nextBounded(1 << 13) * 4;
        addrs.push_back(pc);
        pc += 4;
    }
    VictimCache with(cfg(4096), 4);
    VictimCache without(cfg(4096), 0);
    for (uint64_t a : addrs) {
        with.access(a);
        without.access(a);
    }
    EXPECT_LT(with.misses(), without.misses());
}

TEST(VictimCache, MainArrayMatchesPlainCache)
{
    // The main array is a plain Cache: whatever the buffer catches,
    // main-array hits are exactly a plain cache's hits on the same
    // stream, and every access is a main hit, a victim hit or a
    // miss.
    Rng rng(47);
    std::vector<uint64_t> addrs;
    uint64_t pc = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.nextBool(0.25))
            pc = rng.nextBounded(1 << 14) * 4;
        addrs.push_back(pc);
        pc += 4;
    }
    for (const uint32_t lines : {0u, 1u, 4u}) {
        VictimCache victim(cfg(2048), lines);
        Cache plain(cfg(2048));
        for (uint64_t a : addrs) {
            victim.access(a);
            plain.access(a);
        }
        EXPECT_EQ(victim.mainHits(), plain.hits()) << lines;
        EXPECT_EQ(victim.mainHits() + victim.victimHits() +
                      victim.misses(),
                  victim.accesses())
            << lines;
        EXPECT_EQ(victim.accesses(), addrs.size()) << lines;
        if (lines == 0) {
            EXPECT_EQ(victim.victimHits(), 0u);
        } else {
            EXPECT_GT(victim.victimHits(), 0u) << lines;
        }
    }
}

} // namespace
} // namespace ibs
