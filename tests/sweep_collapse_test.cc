/**
 * @file
 * Tests for sweep collapsing (sim/collapse.h): every cell runSweep
 * derives from a shared miss stream must be bit-for-bit identical to
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

/** Sweep the grid and require all-field equality of every cell with
 *  a full replay of the same config. */
void
expectCollapseParity(const SuiteTraces &suite,
                     const std::vector<FetchConfig> &grid,
                     const std::string &label)
{
    const SweepResult swept = runSweep(suite, grid, 4);
    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            expectEqualStats(swept.cell(c, w),
                             replayCell(suite, w, grid[c]),
                             label + " config " + std::to_string(c) +
                                 " workload " + suite.name(w));
        }
    }
}

TEST(CollapseKey, GroupsL2GeometryAndFillVariants)
{
    // The fig4 grid: economy and high-performance arms share the
    // post-withOnChipL2 L1 side (8KB/1-way/32B, fill {6,16}) and
    // differ only in L2 assoc and *L2 fill* — neither feeds back, so
    // all eight share one key, hence one capture per workload. The
    // 7-cycle-L2 footnote config (different L1 fill) and a wide-bus
    // variant (different L1 bandwidth) each get their own.
    std::vector<FetchConfig> arms;
    for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
        arms.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
        arms.push_back(
            withOnChipL2(highPerfBaseline(), 64 * 1024, 64, assoc));
    }
    const std::string key = collapseKey(arms.front());
    for (const FetchConfig &config : arms) {
        EXPECT_TRUE(collapseEligible(config)) << config.toString();
        EXPECT_EQ(collapseKey(config), key) << config.toString();
    }

    FetchConfig slower =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    slower.l1Fill.latencyCycles = 7;
    const FetchConfig wide = withL1Bandwidth(
        withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8), 32);
    EXPECT_NE(collapseKey(slower), key);
    EXPECT_NE(collapseKey(wide), key);
    EXPECT_NE(collapseKey(slower), collapseKey(wide));
}

TEST(CollapseEligible, FallbackTriggers)
{
    const FetchConfig base =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2);
    EXPECT_TRUE(collapseEligible(base));

    EXPECT_FALSE(collapseEligible(economyBaseline())); // No L2.

    FetchConfig perfect = base;
    perfect.perfectL2 = true;
    EXPECT_FALSE(collapseEligible(perfect));

    FetchConfig prefetch = base;
    prefetch.prefetchLines = 3;
    EXPECT_FALSE(collapseEligible(prefetch));

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
    // the two `_l2` classes share one front end, `wide_bus` has its
    // own, and the baselines (no L2) and the interface-optimization
    // classes replay in full.
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
    EXPECT_EQ(suite.missStreamsBuilt(), 2 * suite.count());
}

TEST(Collapse, TimingFlagsAndMissStreamMemo)
{
    SuiteTraces suite(specSuite(), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 8u})
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    grid.push_back(economyBaseline()); // No L2: replayed in full.
    // The only config with its front end: derived all the same.
    grid.push_back(withL1Bandwidth(
        withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8), 32));

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

    // One memoized miss stream per (workload, front end); the
    // retained-bytes accounting (which serve::TraceMemo::refresh
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
