/**
 * @file
 * Tests for sweep collapsing (sim/collapse.h): runSweep must be
 * bit-for-bit identical to the oracle, a plain SuiteTraces::runOne
 * loop over every cell — stats and registry counters alike — and the
 * LRU stack simulator must agree exactly with the real Cache.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "obs/registry.h"
#include "sim/collapse.h"
#include "sim/stack_sim.h"
#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

void
expectEqualStats(const FetchStats &a, const FetchStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.stallCyclesL1, b.stallCyclesL1) << label;
    EXPECT_EQ(a.stallCyclesL2, b.stallCyclesL2) << label;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.l2DataAccesses, b.l2DataAccesses) << label;
    EXPECT_EQ(a.l2DataMisses, b.l2DataMisses) << label;
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued) << label;
    EXPECT_EQ(a.prefetchesUsed, b.prefetchesUsed) << label;
    EXPECT_EQ(a.streamBufferHits, b.streamBufferHits) << label;
    EXPECT_EQ(a.bypassHits, b.bypassHits) << label;
}

/** Sweep the grid and require all-field equality of every cell with
 *  runOne on the same config. */
void
expectCollapseParity(const SuiteTraces &suite,
                     const std::vector<FetchConfig> &grid,
                     const std::string &label)
{
    const SweepResult collapsed = runSweep(suite, grid, 4);
    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            expectEqualStats(collapsed.cell(c, w),
                             suite.runOne(w, grid[c]),
                             label + " config " + std::to_string(c) +
                                 " workload " + suite.name(w));
        }
    }
}

TEST(CollapsePlan, GroupsL2GeometryAndFillVariants)
{
    // The fig4 grid: economy and high-performance arms share the
    // post-withOnChipL2 L1 side (8KB/1-way/32B, fill {6,16}) and
    // differ only in L2 assoc and *L2 fill* — neither feeds back, so
    // all eight collapse into one group. The 7-cycle-L2 footnote
    // config (different L1 fill) and a wide-bus variant (different L1
    // bandwidth) stay per-cell.
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
        grid.push_back(
            withOnChipL2(highPerfBaseline(), 64 * 1024, 64, assoc));
    }
    FetchConfig slower =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    slower.l1Fill.latencyCycles = 7;
    grid.push_back(slower);
    grid.push_back(withL1Bandwidth(
        withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8), 32));

    const CollapsePlan plan = planCollapse(grid);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.groups[0].members,
              (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(plan.singles, (std::vector<size_t>{8, 9}));
    EXPECT_EQ(plan.collapsedCells(6), 48u);
}

TEST(CollapsePlan, FallbackTriggers)
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

    // Identical ineligible configs never group; a lone eligible
    // config is a singleton and stays per-cell too.
    const CollapsePlan plan =
        planCollapse({prefetch, prefetch, base});
    EXPECT_TRUE(plan.groups.empty());
    EXPECT_EQ(plan.singles, (std::vector<size_t>{0, 1, 2}));
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
                                          64, Replacement::LRU});
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
    // One collapse group spanning L2 sizes, line sizes and
    // associativities: a shallow grid, so every member resolves via
    // (deduplicated) Cache replay of the shared miss stream.
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
    const CollapsePlan plan = planCollapse(grid);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_TRUE(plan.singles.empty());
    expectCollapseParity(suite, grid, "geometry");
}

TEST(Collapse, DeepLadderMatchesPerCellExactly)
{
    // 10 sizes x 5 associativities = 50 distinct (sets, assoc)
    // points at one line size — past the stack-pass break-even
    // (kStackMinDistinctGeometries), so this exercises the
    // all-associativity stack pass end-to-end through runSweep.
    SuiteTraces suite(specSuite(), 12000);
    std::vector<FetchConfig> grid;
    for (uint64_t size = 4 * 1024; size <= 2 * 1024 * 1024;
         size *= 2) {
        for (uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
            grid.push_back(
                withOnChipL2(economyBaseline(), size, 64, assoc));
        }
    }
    const CollapsePlan plan = planCollapse(grid);
    ASSERT_EQ(plan.groups.size(), 1u);
    ASSERT_EQ(plan.groups.front().members.size(), 50u);
    expectCollapseParity(suite, grid, "deep_ladder");
}

TEST(Collapse, ReplacementVariantsMatchPerCellExactly)
{
    // FIFO and Random L2s share the group with the LRU members but
    // must take the Cache-replay path (the stack algorithm only
    // holds for LRU); Random's LFSR sequence is deterministic per
    // Cache instance, so replay is exact there too.
    SuiteTraces suite(ibsSuite(OsType::Mach), 10000);
    std::vector<FetchConfig> grid;
    for (const Replacement repl :
         {Replacement::LRU, Replacement::FIFO, Replacement::Random}) {
        for (uint32_t assoc : {2u, 8u}) {
            FetchConfig cfg =
                withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc);
            cfg.l2.replacement = repl;
            grid.push_back(cfg);
        }
    }
    const CollapsePlan plan = planCollapse(grid);
    ASSERT_EQ(plan.groups.size(), 1u);
    expectCollapseParity(suite, grid, "replacement");
}

TEST(Collapse, CatalogClassesMatchPerCellExactly)
{
    // The sweep server's config-class catalog (serve/catalog.cc):
    // the two `_l2` classes collapse together; the baselines (no L2)
    // and the interface-optimization classes all fall back.
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

    const CollapsePlan plan = planCollapse(grid);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.groups[0].members, (std::vector<size_t>{2, 3}));
    EXPECT_EQ(plan.singles,
              (std::vector<size_t>{0, 1, 4, 5, 6, 7}));
    expectCollapseParity(suite, grid, "catalog");
}

TEST(Collapse, TimingFlagsAndMissStreamMemo)
{
    SuiteTraces suite(specSuite(), 10000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 8u})
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    grid.push_back(economyBaseline()); // Per-cell single.

    EXPECT_EQ(suite.missStreamsBuilt(), 0u);
    const uint64_t bytes_before = suite.retainedTraceBytes();

    const SweepResult collapsed = runSweep(suite, grid, 2);
    // Leader (lowest grid index) carries the capture; dependents are
    // flagged as derived. Singles never are.
    for (size_t w = 0; w < suite.count(); ++w) {
        EXPECT_FALSE(collapsed.timing(0, w).collapsed);
        EXPECT_TRUE(collapsed.timing(1, w).collapsed);
        EXPECT_TRUE(collapsed.timing(2, w).collapsed);
        EXPECT_FALSE(collapsed.timing(3, w).collapsed);
    }

    // One memoized miss stream per workload; the retained-bytes
    // accounting (which serve::TraceMemo::refresh charges against
    // its budget) must see them.
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
    EXPECT_GT(suite.retainedTraceBytes(), bytes_before);

    // A second sweep reuses the streams.
    runSweep(suite, grid, 2);
    EXPECT_EQ(suite.missStreamsBuilt(), suite.count());
}

TEST(Collapse, ObsSnapshotIsCollapseInvariant)
{
    // The derived cells synthesize exactly the counters and the
    // sim.cell.instructions histogram sample runOne would have
    // published, so the full-registry snapshot of a sweep equals that
    // of a runOne loop over the same cells — modulo the sim.sweep.*
    // plan counters, which only the scheduler itself emits.
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

    const auto strip_plan_keys =
        [](std::map<std::string, uint64_t> snap) {
            for (auto it = snap.begin(); it != snap.end();) {
                if (it->first.rfind("sim.sweep.", 0) == 0)
                    it = snap.erase(it);
                else
                    ++it;
            }
            return snap;
        };

    runSweep(suite, grid, 2);
    const auto collapsed_counters =
        strip_plan_keys(registry.snapshot());
    const auto collapsed_hists = registry.snapshotHistograms();

    registry.reset();
    for (const FetchConfig &config : grid)
        for (size_t w = 0; w < suite.count(); ++w)
            suite.runOne(w, config);
    const auto per_cell_counters =
        strip_plan_keys(registry.snapshot());
    const auto per_cell_hists = registry.snapshotHistograms();

    EXPECT_EQ(collapsed_counters, per_cell_counters);
    EXPECT_EQ(collapsed_hists.size(), per_cell_hists.size());
    for (const auto &[name, hist] : collapsed_hists) {
        const auto it = per_cell_hists.find(name);
        ASSERT_NE(it, per_cell_hists.end()) << name;
        EXPECT_TRUE(hist == it->second) << name;
    }

    registry.reset();
    registry.setEnabled(was);
}

TEST(Collapse, PlanCountersAreThreadInvariant)
{
    obs::Registry &registry = obs::Registry::global();
    const bool was = registry.enabled();

    SuiteTraces suite(specSuite(), 5000);
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 4u})
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
    grid.push_back(economyBaseline());

    std::map<std::string, uint64_t> seen;
    for (const unsigned threads : {1u, 8u}) {
        registry.reset();
        registry.setEnabled(true);
        runSweep(suite, grid, threads);
        const auto snap = registry.snapshot();
        std::map<std::string, uint64_t> plan_keys;
        for (const auto &[name, value] : snap) {
            if (name.rfind("sim.sweep.", 0) == 0)
                plan_keys[name] = value;
        }
        EXPECT_EQ(plan_keys.at("sim.sweep.groups"), 1u);
        EXPECT_EQ(plan_keys.at("sim.sweep.collapsed_cells"),
                  3u * suite.count());
        EXPECT_EQ(plan_keys.at("sim.sweep.fallback_cells"),
                  1u * suite.count());
        if (seen.empty())
            seen = plan_keys;
        else
            EXPECT_EQ(seen, plan_keys);
    }

    registry.reset();
    registry.setEnabled(was);
}

} // namespace
} // namespace ibs
