/**
 * @file
 * Unit and property tests for the set-associative cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.h"
#include "stats/rng.h"

namespace ibs {
namespace {

CacheConfig
cfg(uint64_t size, uint32_t assoc, uint32_t line)
{
    return CacheConfig{size, assoc, line};
}

TEST(CacheConfig, DerivedGeometry)
{
    const CacheConfig c = cfg(8 * 1024, 2, 32);
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.lineShift(), 5u);
    EXPECT_EQ(c.lineAddr(0x1234), 0x1220u);
}

TEST(CacheConfig, Colors)
{
    // 8-KB direct-mapped: 2 page colors; 8-KB 2-way: 1 color.
    EXPECT_EQ(cfg(8 * 1024, 1, 32).colors(), 2u);
    EXPECT_EQ(cfg(8 * 1024, 2, 32).colors(), 1u);
    EXPECT_EQ(cfg(64 * 1024, 1, 32).colors(), 16u);
}

TEST(CacheConfig, ValidationRejectsBadGeometry)
{
    EXPECT_THROW(cfg(8 * 1024 + 1, 1, 32).validate(),
                 std::invalid_argument);
    EXPECT_THROW(cfg(8 * 1024, 1, 24).validate(),
                 std::invalid_argument);
    EXPECT_THROW(cfg(8 * 1024, 0, 32).validate(),
                 std::invalid_argument);
    EXPECT_THROW(cfg(8 * 1024, 3, 32).validate(),
                 std::invalid_argument);
    EXPECT_NO_THROW(cfg(8 * 1024, 8, 32).validate());
}

TEST(CacheConfig, ToString)
{
    EXPECT_EQ(cfg(8 * 1024, 1, 32).toString(), "8KB/1-way/32B");
    EXPECT_EQ(cfg(64 * 1024, 8, 64).toString(), "64KB/8-way/64B");
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(cfg(1024, 1, 32));
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x11c)); // Same 32-byte line.
    EXPECT_FALSE(c.access(0x120)); // Next line.
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

TEST(Cache, DirectMappedConflict)
{
    // 1-KB direct-mapped, 32-B lines: addresses 1 KB apart conflict.
    Cache c(cfg(1024, 1, 32));
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x400));
    EXPECT_FALSE(c.access(0x0)); // Evicted by 0x400.
    EXPECT_FALSE(c.access(0x400));
}

TEST(Cache, TwoWayRemovesPingPong)
{
    Cache c(cfg(1024, 2, 32));
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x400));
    EXPECT_TRUE(c.access(0x0));
    EXPECT_TRUE(c.access(0x400));
}

TEST(Cache, LruEvictsLeastRecent)
{
    // 2-way set: fill both ways, touch way A, insert third line ->
    // way B (least recent) is evicted.
    Cache c(cfg(1024, 2, 32));
    ASSERT_FALSE(c.access(0x0));   // A
    ASSERT_FALSE(c.access(0x400)); // B
    ASSERT_TRUE(c.access(0x0));    // Touch A.
    ASSERT_FALSE(c.access(0x800)); // Evicts B.
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x400));
}

TEST(CacheConfig, NonPowerOfTwoAssocIsLegal)
{
    // Only the set count must be a power of two; a 3-way cache with
    // a power-of-two set count is a legal geometry.
    EXPECT_NO_THROW(cfg(96, 3, 32).validate());   // 1 set.
    EXPECT_NO_THROW(cfg(384, 3, 32).validate());  // 4 sets.
    EXPECT_EQ(cfg(384, 3, 32).numSets(), 4u);
    // 8 KB has 256 lines: not divisible by 3, still rejected.
    EXPECT_THROW(cfg(8 * 1024, 3, 32).validate(),
                 std::invalid_argument);
    // 6 sets of 2 ways: set count not a power of two.
    EXPECT_THROW(cfg(384, 2, 32).validate(), std::invalid_argument);
}

TEST(Cache, ContainsDoesNotMutate)
{
    Cache c(cfg(1024, 1, 32));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_EQ(c.accesses(), 0u);
    c.access(0x100);
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(Cache, InsertWithoutCounting)
{
    Cache c(cfg(1024, 1, 32));
    c.insert(0x100);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x100));
}

TEST(Cache, InsertTouchesRecency)
{
    Cache c(cfg(1024, 2, 32));
    c.access(0x0);
    c.access(0x400);
    c.insert(0x0);     // Refresh line A.
    c.access(0x800);   // Should evict 0x400.
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x400));
}

TEST(Cache, InvalidateSingleLine)
{
    Cache c(cfg(1024, 1, 32));
    c.access(0x100);
    c.invalidate(0x100);
    EXPECT_FALSE(c.contains(0x100));
    c.invalidate(0x200); // Absent: no-op.
}

TEST(Cache, AccessExReportsSlot)
{
    // 1 KB, 2-way, 32-B lines: 16 sets. 0x40 and 0x240 both map to
    // set 2, whose ways are slots 4 and 5.
    Cache c(cfg(1024, 2, 32));
    const Cache::AccessOutcome fill = c.accessEx(0x40);
    ASSERT_FALSE(fill.hit);
    const Cache::AccessOutcome hit = c.accessEx(0x5c); // Same line.
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.slot, fill.slot);

    const Cache::AccessOutcome other = c.accessEx(0x240);
    ASSERT_FALSE(other.hit);
    EXPECT_FALSE(other.evicted);
    EXPECT_NE(other.slot, fill.slot);
    const size_t base = 4; // Set 2 of 2 ways.
    for (const size_t slot : {fill.slot, other.slot}) {
        EXPECT_GE(slot, base);
        EXPECT_LT(slot, base + 2);
    }
    EXPECT_EQ(c.accessEx(0x240).slot, other.slot);
}

TEST(Cache, ValidLinesCountsOnlyFilledSlots)
{
    Cache c(cfg(1024, 2, 32)); // 32 slots.
    EXPECT_EQ(c.validLines(), 0u);
    for (uint64_t a = 0; a < 512; a += 32)
        c.access(a);
    EXPECT_EQ(c.validLines(), 16u);
}

TEST(Cache, FullyAssociativeHoldsExactlyCapacity)
{
    Cache c(cfg(1024, 32, 32)); // Fully associative: 32 lines.
    for (uint64_t i = 0; i < 32; ++i)
        c.access(i * 32);
    // All 32 lines hit.
    for (uint64_t i = 0; i < 32; ++i)
        EXPECT_TRUE(c.access(i * 32));
    // A 33rd line evicts the LRU (line 0 after the loop above... the
    // least recently touched is line 0 of the second pass order).
    c.access(32 * 32);
    EXPECT_EQ(c.validLines(), 32u);
}

/**
 * Property sweep: on a fixed pseudo-random address stream, the miss
 * count must be monotonically non-increasing in cache size (with
 * LRU and fixed line size/assoc, bigger caches include smaller ones'
 * hits for this stream class).
 */
class CacheMonotonicity
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CacheMonotonicity, MissesDecreaseWithSize)
{
    const auto [assoc, line] = GetParam();
    Rng rng(2024);
    std::vector<uint64_t> addrs;
    uint64_t pc = 0;
    for (int i = 0; i < 60000; ++i) {
        if (rng.nextBool(0.2))
            pc = rng.nextBounded(1 << 16) * 4;
        addrs.push_back(pc);
        pc += 4;
    }
    uint64_t prev_misses = UINT64_MAX;
    for (uint64_t size = 1024; size <= 64 * 1024; size *= 2) {
        Cache c(cfg(size, assoc, line));
        for (uint64_t a : addrs)
            c.access(a);
        EXPECT_LE(c.misses(), prev_misses)
            << "size " << size << " assoc " << assoc;
        prev_misses = c.misses();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheMonotonicity,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(16u, 32u, 64u)));

/**
 * Property sweep: for a fixed size, higher associativity with LRU
 * never increases misses *by much* on streaming workloads; we assert
 * a weaker, always-true invariant — the fully-associative cache's
 * misses lower-bound within 10% all other associativities (Belady
 * anomalies for LRU-assoc do exist but are small on random streams).
 */
class CacheAssocSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CacheAssocSweep, AssociativityReducesConflicts)
{
    const uint64_t size = GetParam();
    Rng rng(7);
    std::vector<uint64_t> addrs;
    uint64_t pc = 0;
    for (int i = 0; i < 50000; ++i) {
        if (rng.nextBool(0.25))
            pc = rng.nextBounded(1 << 14) * 4;
        addrs.push_back(pc);
        pc += 4;
    }

    auto misses = [&](uint32_t assoc) {
        Cache c(cfg(size, assoc, 32));
        for (uint64_t a : addrs)
            c.access(a);
        return c.misses();
    };

    const uint64_t dm = misses(1);
    const uint64_t eight = misses(8);
    // 8-way removes conflict misses relative to direct-mapped — the
    // exact property Figure 1's classification depends on.
    EXPECT_LE(eight, dm + dm / 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheAssocSweep,
                         ::testing::Values(2048u, 8192u, 32768u));

/**
 * Reference model for the differential test below: the
 * array-of-structs cache this codebase used before the
 * structure-of-arrays refactor, kept deliberately naive (one struct
 * per line with its own valid flag, linear way scan, no precomputed
 * geometry). LRU semantics — way-order preference for invalid slots,
 * first-oldest stamp on ties — mirror the production cache exactly;
 * only the storage layout differs.
 */
class ReferenceAosCache
{
  public:
    explicit ReferenceAosCache(const CacheConfig &config)
        : config_(config)
    {
        config_.validate();
        lines_.resize(config_.numSets() * config_.assoc);
    }

    bool access(uint64_t addr) { return accessEx(addr).hit; }

    Cache::AccessOutcome accessEx(uint64_t addr)
    {
        ++accesses_;
        Cache::AccessOutcome outcome;
        Line *line = find(addr);
        if (line) {
            ++hits_;
            line->stamp = ++clock_;
            outcome.hit = true;
            return outcome;
        }
        Line &victim = pickVictim(addr);
        if (victim.valid) {
            outcome.evicted = true;
            outcome.victimAddr = victim.tag
                                 << config_.lineShift();
        }
        fill(victim, addr);
        return outcome;
    }

    bool contains(uint64_t addr) const
    {
        return const_cast<ReferenceAosCache *>(this)->find(addr) !=
               nullptr;
    }

    void insert(uint64_t addr)
    {
        Line *line = find(addr);
        if (line) {
            line->stamp = ++clock_;
            return;
        }
        fill(pickVictim(addr), addr);
    }

    void invalidate(uint64_t addr)
    {
        if (Line *line = find(addr))
            line->valid = false;
    }

    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t evictions() const { return evictions_; }

    std::vector<uint64_t> validLineAddrs() const
    {
        std::vector<uint64_t> out;
        for (const Line &line : lines_) {
            if (line.valid)
                out.push_back(line.tag << config_.lineShift());
        }
        return out;
    }

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t stamp = 0;
    };

    Line *find(uint64_t addr)
    {
        const uint64_t tag = addr >> config_.lineShift();
        const size_t base = (tag & (config_.numSets() - 1)) *
                            config_.assoc;
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            Line &line = lines_[base + w];
            if (line.valid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    Line &pickVictim(uint64_t addr)
    {
        const uint64_t tag = addr >> config_.lineShift();
        const size_t base = (tag & (config_.numSets() - 1)) *
                            config_.assoc;
        for (uint32_t w = 0; w < config_.assoc; ++w) {
            if (!lines_[base + w].valid)
                return lines_[base + w];
        }
        uint32_t victim = 0;
        for (uint32_t w = 1; w < config_.assoc; ++w) {
            if (lines_[base + w].stamp < lines_[base + victim].stamp)
                victim = w;
        }
        return lines_[base + victim];
    }

    void fill(Line &line, uint64_t addr)
    {
        if (line.valid)
            ++evictions_;
        line.valid = true;
        line.tag = addr >> config_.lineShift();
        line.stamp = ++clock_;
    }

    CacheConfig config_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t evictions_ = 0;
};

/**
 * Differential test: the SoA cache and the AoS reference must agree
 * access-by-access — hit/miss, eviction reporting, victim addresses,
 * counters and final contents — over randomized streams mixing every
 * public mutation, across a range of geometries (direct-mapped,
 * power-of-two and non-power-of-two ways, fully associative). The
 * policy axis holds Replacement's one value, LRU, and keeps the
 * cases' names.
 */
class CacheSoaDifferential
    : public ::testing::TestWithParam<
          std::tuple<Replacement, std::tuple<uint64_t, uint32_t,
                                             uint32_t>>>
{
};

TEST_P(CacheSoaDifferential, MatchesAosReferenceExactly)
{
    const auto [size, assoc, line] = std::get<1>(GetParam());
    const CacheConfig config = cfg(size, assoc, line);

    Cache soa(config);
    ReferenceAosCache aos(config);

    // Footprint ~4x the cache so capacity and conflict evictions both
    // occur; word-aligned addresses as the fetch path produces.
    const uint64_t span = size * 4;
    Rng rng(0xd1ff + size + assoc * 131 + line);
    uint64_t pc = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.nextBool(0.2))
            pc = rng.nextBounded(span) & ~uint64_t{3};
        const uint64_t addr = pc;
        pc += 4;

        const double op = rng.nextDouble();
        if (op < 0.70) {
            EXPECT_EQ(soa.access(addr), aos.access(addr))
                << "access #" << i << " addr " << addr;
        } else if (op < 0.85) {
            const Cache::AccessOutcome got = soa.accessEx(addr);
            const Cache::AccessOutcome want = aos.accessEx(addr);
            EXPECT_EQ(got.hit, want.hit) << "accessEx #" << i;
            EXPECT_EQ(got.evicted, want.evicted) << "accessEx #" << i;
            EXPECT_EQ(got.victimAddr, want.victimAddr)
                << "accessEx #" << i;
        } else if (op < 0.92) {
            EXPECT_EQ(soa.contains(addr), aos.contains(addr))
                << "contains #" << i;
        } else if (op < 0.97) {
            soa.insert(addr);
            aos.insert(addr);
        } else {
            soa.invalidate(addr);
            aos.invalidate(addr);
        }
    }

    EXPECT_EQ(soa.accesses(), aos.accesses());
    EXPECT_EQ(soa.hits(), aos.hits());
    EXPECT_EQ(soa.evictions(), aos.evictions());

    std::vector<uint64_t> soa_lines = soa.validLineAddrs();
    std::vector<uint64_t> aos_lines = aos.validLineAddrs();
    std::sort(soa_lines.begin(), soa_lines.end());
    std::sort(aos_lines.begin(), aos_lines.end());
    EXPECT_EQ(soa_lines, aos_lines);
    EXPECT_EQ(soa.validLines(), aos_lines.size());
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndGeometries, CacheSoaDifferential,
    ::testing::Combine(
        ::testing::Values(Replacement::LRU),
        ::testing::Values(std::make_tuple(uint64_t{4096}, 1u, 32u),
                          std::make_tuple(uint64_t{4096}, 2u, 32u),
                          std::make_tuple(uint64_t{8192}, 4u, 64u),
                          std::make_tuple(uint64_t{6144}, 3u, 32u),
                          std::make_tuple(uint64_t{2048}, 8u, 16u),
                          // Fully associative: one set, 64 ways.
                          std::make_tuple(uint64_t{2048}, 64u,
                                          32u))));

/**
 * accessLine applies a line piece in one call; it must leave the
 * cache exactly as `count` scalar access() calls do — counters,
 * evictions, victim choice and so every later outcome —
 * direct-mapped through fully associative.
 */
TEST(Cache, AccessLineEqualsCountScalarAccesses)
{
    constexpr uint32_t kLine = 32;
    constexpr uint64_t kSize = 16 * kLine;
    for (uint32_t assoc : {1u, 2u, 4u, 16u}) {
        const std::string label = std::to_string(assoc) + "-way";
        Cache batched(cfg(kSize, assoc, kLine));
        Cache scalar(cfg(kSize, assoc, kLine));
        Rng rng(0xacce55 + assoc);
        for (int step = 0; step < 4000; ++step) {
            // A piece of 1..8 instructions inside one of 48 lines (3x
            // capacity, so hits, misses and evictions mix).
            const uint64_t first = rng.nextBounded(kLine / 4);
            const uint64_t count = 1 + rng.nextBounded(kLine / 4 - first);
            const uint64_t addr = rng.nextBounded(48) * kLine + first * 4;
            const bool hit = batched.accessLine(addr, count);
            ASSERT_EQ(hit, scalar.access(addr))
                << label << " step " << step;
            for (uint64_t k = 1; k < count; ++k)
                ASSERT_TRUE(scalar.access(addr + 4 * k)) << label;
            ASSERT_EQ(batched.accesses(), scalar.accesses()) << label;
            ASSERT_EQ(batched.hits(), scalar.hits()) << label;
            ASSERT_EQ(batched.evictions(), scalar.evictions()) << label;
        }
        EXPECT_EQ(batched.validLineAddrs(), scalar.validLineAddrs())
            << label;
        for (uint64_t line = 0; line < 48; ++line) {
            EXPECT_EQ(batched.access(line * kLine),
                      scalar.access(line * kLine))
                << label << " line " << line;
        }
    }
}

} // namespace
} // namespace ibs
