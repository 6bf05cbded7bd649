/**
 * @file
 * Tests for sweep collapsing (sim/collapse.h): every cell runSweep
 * derives from a shared L1 capture must be bit-for-bit identical to
 * the oracle, a full FetchEngine replay of the same cell
 * (replay_oracle.h) — stats and registry counters alike. The LRU
 * stack simulator (sim/stack_sim.h, timed by perfbench) must agree
 * exactly with the real Cache.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "obs/registry.h"
#include "replay_oracle.h"
#include "sim/bench_report.h"
#include "sim/collapse.h"
#include "sim/stack_sim.h"
#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

/**
 * Sweep the grid and require every cell to equal a full replay of
 * the same config: all FetchStats fields, and the registry counters
 * and histogram samples runOne publishes for that cell alone.
 */
void
expectCollapseParity(const SuiteTraces &suite,
                     const std::vector<FetchConfig> &grid,
                     const std::string &label)
{
    const SweepResult swept = runSweep(suite, grid, 4);
    obs::Registry &registry = obs::Registry::global();
    const bool was = registry.enabled();
    registry.setEnabled(true);
    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const std::string cell = label + " config " +
                std::to_string(c) + " workload " + suite.name(w);
            registry.reset();
            suite.runOne(w, grid[c]);
            const auto counters = registry.snapshot();
            const auto hists = registry.snapshotHistograms();
            registry.reset();
            expectEqualStats(swept.cell(c, w),
                             replayCell(suite, w, grid[c]), cell);
            EXPECT_EQ(counters, registry.snapshot()) << cell;
            EXPECT_TRUE(hists == registry.snapshotHistograms()) << cell;
        }
    }
    registry.reset();
    registry.setEnabled(was);
}

TEST(CollapseKey, GroupsL2GeometryAndFillVariants)
{
    // The fig4 grid: economy and high-performance arms share the
    // post-withOnChipL2 L1 (8KB/1-way/32B) and differ in L2 assoc
    // and L2 fill. The 7-cycle-L2 footnote config (slower L1 fill)
    // and a wide-bus variant (faster L1 fill) differ in L1 fill
    // timing too. A blocking fill's timing and the L2 never feed
    // back into the L1, so all ten share one key, hence one capture
    // per workload.
    std::vector<FetchConfig> arms;
    for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
        arms.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
        arms.push_back(
            withOnChipL2(highPerfBaseline(), 64 * 1024, 64, assoc));
    }
    FetchConfig slower =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    slower.l1Fill.latencyCycles = 7;
    arms.push_back(slower);
    arms.push_back(withL1Bandwidth(
        withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8), 32));
    const std::string key = collapseKey(arms.front());
    for (const FetchConfig &config : arms) {
        EXPECT_TRUE(collapseEligible(config)) << config.toString();
        EXPECT_EQ(collapseKey(config), key) << config.toString();
    }

    // Without a real L2 the capture keeps counts only, so the
    // baselines (no L2) and a perfect L2 share a key of their own.
    FetchConfig perfect = arms.front();
    perfect.perfectL2 = true;
    EXPECT_NE(collapseKey(economyBaseline()), key);
    EXPECT_EQ(collapseKey(economyBaseline()),
              collapseKey(highPerfBaseline()));
    EXPECT_EQ(collapseKey(perfect), collapseKey(economyBaseline()));

    // The prefetch depth and the L1 geometry change what the L1
    // holds.
    FetchConfig prefetch = arms.front();
    prefetch.prefetchLines = 1;
    FetchConfig bigger = arms.front();
    bigger.l1.sizeBytes = 16 * 1024;
    EXPECT_NE(collapseKey(prefetch), key);
    EXPECT_NE(collapseKey(bigger), key);
}

TEST(CollapseEligible, FallbackTriggers)
{
    // Every blocking fill is eligible, whatever its prefetch depth
    // and whether its L2 is real, perfect or absent.
    const FetchConfig base =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2);
    EXPECT_TRUE(collapseEligible(base));

    EXPECT_TRUE(collapseEligible(economyBaseline())); // No L2.

    FetchConfig perfect = base;
    perfect.perfectL2 = true;
    EXPECT_TRUE(collapseEligible(perfect));

    FetchConfig prefetch = base;
    prefetch.prefetchLines = 3;
    EXPECT_TRUE(collapseEligible(prefetch));

    // Bypass, pipelined, unified and only-if-used configs feed
    // timing or data back into the fetch and replay in full.

    FetchConfig bypass = base;
    bypass.bypass = true;
    EXPECT_FALSE(collapseEligible(bypass));

    FetchConfig pipe = base;
    pipe.pipelined = true;
    pipe.streamBufferLines = 6;
    EXPECT_FALSE(collapseEligible(pipe));

    FetchConfig unified = base;
    unified.l2Unified = true;
    EXPECT_FALSE(collapseEligible(unified));

    FetchConfig only_used = base;
    only_used.prefetchLines = 2;
    only_used.cachePrefetchOnlyIfUsed = true;
    EXPECT_FALSE(collapseEligible(only_used));
}

TEST(StackSim, MatchesCacheOnRandomizedGeometries)
{
    // A stream with cache-like locality: random walk over a hot
    // window plus occasional far jumps, 64-byte lines.
    std::mt19937_64 rng(12345);
    std::vector<uint64_t> addrs;
    uint64_t base = 0x400000;
    for (int i = 0; i < 30000; ++i) {
        if (rng() % 64 == 0)
            base = (rng() % 256) * 0x10000;
        addrs.push_back(base + rng() % (96 * 64));
    }

    std::vector<StackGeometry> geometries;
    std::vector<CacheConfig> configs;
    for (uint64_t sets : {1u, 2u, 16u, 64u}) {
        for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
            geometries.push_back(StackGeometry{sets, assoc});
            configs.push_back(CacheConfig{sets * assoc * 64, assoc,
                                          64});
        }
    }

    StackSimulator sim(6, geometries);
    for (uint64_t a : addrs)
        sim.reference(a);
    const std::vector<StackCounts> counts = sim.counts();

    for (size_t g = 0; g < configs.size(); ++g) {
        Cache cache(configs[g]);
        for (uint64_t a : addrs)
            cache.access(a);
        const std::string label = "sets=" +
            std::to_string(geometries[g].numSets) + " assoc=" +
            std::to_string(geometries[g].assoc);
        EXPECT_EQ(counts[g].hits, cache.hits()) << label;
        EXPECT_EQ(counts[g].misses, cache.misses()) << label;
        EXPECT_EQ(counts[g].evictions, cache.evictions()) << label;
    }
}

TEST(Collapse, GeometryGridMatchesPerCellExactly)
{
    // One shared front end under L2 sizes, line sizes and
    // associativities, each cell resolved by Cache replay of the
    // shared miss stream.
    SuiteTraces suite(specSuite(), 20000);
    std::vector<FetchConfig> grid;
    for (uint64_t size : {16ull * 1024, 64ull * 1024}) {
        for (uint32_t line : {32u, 64u}) {
            for (uint32_t assoc : {1u, 2u, 8u}) {
                grid.push_back(withOnChipL2(economyBaseline(), size,
                                            line, assoc));
            }
        }
    }
    expectCollapseParity(suite, grid, "geometry");
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
}

TEST(Collapse, DeepLadderMatchesPerCellExactly)
{
    // 10 sizes x 5 associativities = 50 distinct (sets, assoc)
    // points at one line size: 50 Cache replays of one shared miss
    // stream per workload, end to end through runSweep.
    SuiteTraces suite(specSuite(), 12000);
    std::vector<FetchConfig> grid;
    for (uint64_t size = 4 * 1024; size <= 2 * 1024 * 1024;
         size *= 2) {
        for (uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            grid.push_back(
                withOnChipL2(economyBaseline(), size, 64, assoc));
        }
    }
    ASSERT_EQ(grid.size(), 50u);
    expectCollapseParity(suite, grid, "deep_ladder");
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
}

TEST(Collapse, ReplacementVariantsMatchPerCellExactly)
{
    // Replacement is LRU alone, so the variants are LRU L2s of 2 and
    // 8 ways sharing one front end on the IBS Mach suite.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {2u, 8u}) {
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    }
    expectCollapseParity(suite, grid, "replacement");
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
}

TEST(Collapse, CatalogClassesMatchPerCellExactly)
{
    // The sweep server's config-class catalog (serve/catalog.cc):
    // the baselines (no L2) share one counts-only capture, the two
    // `_l2` classes and `wide_bus` share one miss stream, `prefetch`
    // has its own, and only the bypass and stream-buffer classes
    // replay in full.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    const FetchConfig economy = economyBaseline();
    const FetchConfig high = highPerfBaseline();
    const FetchConfig econ_l2 =
        withOnChipL2(economy, 64 * 1024, 64, 8);
    const FetchConfig high_l2 = withOnChipL2(high, 64 * 1024, 64, 8);
    const FetchConfig wide = withL1Bandwidth(high_l2, 32);
    FetchConfig prefetch = wide;
    prefetch.prefetchLines = 3;
    FetchConfig bypass = prefetch;
    bypass.bypass = true;
    FetchConfig stream = wide;
    stream.pipelined = true;
    stream.streamBufferLines = 6;
    const std::vector<FetchConfig> grid = {
        economy, high, econ_l2, high_l2,
        wide,    prefetch, bypass, stream};

    expectCollapseParity(suite, grid, "catalog");
    EXPECT_EQ(suite.missStreamsBuilt(), 3 * suite.count());
}

TEST(Collapse, BandwidthGridWithoutL2MatchesPerCellExactly)
{
    // Figure 6's grid: 7 line sizes x 5 L1 fill bandwidths with no
    // L2. The fill timing is priced per cell, so one counts-only
    // capture per line size serves all five bandwidths.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t line : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        for (uint32_t bw : {4u, 8u, 16u, 32u, 64u}) {
            FetchConfig c;
            c.l1 = CacheConfig{8 * 1024, 1, line};
            c.l1Fill = MemoryTiming{6, bw};
            grid.push_back(c);
        }
    }
    expectCollapseParity(suite, grid, "fig6");
    EXPECT_EQ(suite.missStreamsBuilt(), 7 * suite.count());
}

TEST(Collapse, BaselinesAndPerfectL2MatchPerCellExactly)
{
    // Table 5's two baselines (no L2, different backing-store
    // timing) and an on-chip perfect L2 over the same L1: one
    // counts-only capture per workload prices all three.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    FetchConfig perfect =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    perfect.perfectL2 = true;
    const std::vector<FetchConfig> grid = {economyBaseline(),
                                           highPerfBaseline(), perfect};
    expectCollapseParity(suite, grid, "baselines");
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
}

TEST(Collapse, PrefetchDepthsMatchPerCellExactly)
{
    // Table 6's blocking prefetch bursts at depths 1-3, without an
    // L2, with a perfect one and with a real one: the L2 replay
    // takes every prefetched line after its demand line.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t pf : {1u, 2u, 3u}) {
        FetchConfig none;
        none.l1 = CacheConfig{8 * 1024, 1, 16};
        none.l1Fill = MemoryTiming{6, 16};
        none.prefetchLines = pf;
        FetchConfig real = withOnChipL2(none, 64 * 1024, 64, 4);
        FetchConfig perfect = real;
        perfect.perfectL2 = true;
        grid.push_back(none);
        grid.push_back(perfect);
        grid.push_back(real);
        grid.push_back(withL1Bandwidth(real, 32));
    }
    expectCollapseParity(suite, grid, "prefetch");
    // Per depth: one counts-only capture and one miss stream.
    EXPECT_EQ(suite.missStreamsBuilt(), 6 * suite.count());
}

TEST(Collapse, TimingFlagsAndMissStreamMemo)
{
    SuiteTraces suite(specSuite(), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 8u})
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    grid.push_back(economyBaseline()); // No L2: counts only.
    grid.push_back(withL1Bandwidth(
        withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8), 32));
    // Bypass replays in full.
    FetchConfig bypass = grid.back();
    bypass.prefetchLines = 1;
    bypass.bypass = true;
    grid.push_back(bypass);

    EXPECT_EQ(suite.missStreamsBuilt(), 0u);
    const uint64_t bytes_before = suite.retainedTraceBytes();

    const SweepResult result = runSweep(suite, grid, 2);
    // The report flags exactly the derived cells, which are exactly
    // the eligible configs', whatever else is in the grid.
    BenchReport report("collapse_flags_unit_test");
    report.addSweep("grid", suite, grid, result);
    const Json doc = report.build();
    const Json &cells = doc.at("cells");
    ASSERT_EQ(cells.size(), grid.size() * suite.count());
    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const Json &timing =
                cells.at(c * suite.count() + w).at("timing");
            EXPECT_EQ(timing.at("collapsed").asBool(),
                      collapseEligible(grid[c]))
                << "config " << c << " workload " << suite.name(w);
        }
    }

    // One memoized capture per (workload, key): the three real-L2
    // configs and the wide bus share one, the baseline has its own.
    // The retained-bytes accounting (which serve::TraceMemo::refresh
    // charges against its budget) must see them.
    EXPECT_EQ(suite.missStreamsBuilt(), 2 * suite.count());
    EXPECT_GT(suite.retainedTraceBytes(), bytes_before);

    // A second sweep reuses the streams.
    runSweep(suite, grid, 2);
    EXPECT_EQ(suite.missStreamsBuilt(), 2 * suite.count());
}

TEST(Collapse, ObsSnapshotIsCollapseInvariant)
{
    // Derived cells publish exactly the counters and the
    // sim.cell.instructions histogram sample a full replay would
    // have, so the full-registry snapshot of a sweep equals that of
    // replaying every cell through a FetchEngine.
    obs::Registry &registry = obs::Registry::global();
    const bool was = registry.enabled();
    registry.reset();
    registry.setEnabled(true);

    SuiteTraces suite(specSuite(), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 8u})
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    grid.push_back(economyBaseline());

    runSweep(suite, grid, 2);
    const auto swept_counters = registry.snapshot();
    const auto swept_hists = registry.snapshotHistograms();

    registry.reset();
    for (const FetchConfig &config : grid)
        for (size_t w = 0; w < suite.count(); ++w)
            replayCell(suite, w, config);
    const auto replayed_counters = registry.snapshot();
    const auto replayed_hists = registry.snapshotHistograms();

    EXPECT_EQ(swept_counters, replayed_counters);
    EXPECT_EQ(swept_hists.size(), replayed_hists.size());
    for (const auto &[name, hist] : swept_hists) {
        const auto it = replayed_hists.find(name);
        ASSERT_NE(it, replayed_hists.end()) << name;
        EXPECT_TRUE(hist == it->second) << name;
    }

    registry.reset();
    registry.setEnabled(was);
}

} // namespace
} // namespace ibs
