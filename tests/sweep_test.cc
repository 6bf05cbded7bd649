/**
 * @file
 * Tests for the parallel sweep executor: the parallel path must be
 * bit-for-bit identical to serial runOne/runSuite, regardless of
 * worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "replay_oracle.h"
#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

/** A small but policy-diverse config grid. */
std::vector<FetchConfig>
smallGrid()
{
    std::vector<FetchConfig> grid;
    grid.push_back(economyBaseline());
    grid.push_back(highPerfBaseline());
    grid.push_back(withOnChipL2(economyBaseline(), 64 * 1024, 64, 2));

    FetchConfig pf = withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8);
    pf.l1.lineBytes = 16;
    pf.prefetchLines = 3;
    pf.bypass = true;
    grid.push_back(pf);

    FetchConfig pipe = economyBaseline();
    pipe.l1Fill = MemoryTiming{6, 32};
    pipe.pipelined = true;
    pipe.streamBufferLines = 6;
    grid.push_back(pipe);
    return grid;
}

TEST(Sweep, ParallelCellsMatchSerialRunOneExactly)
{
    SuiteTraces suite(specSuite(), 20000);
    const std::vector<FetchConfig> grid = smallGrid();

    const SweepResult result = runSweep(suite, grid, 4);
    ASSERT_EQ(result.configCount(), grid.size());
    ASSERT_EQ(result.workloadCount(), suite.count());

    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const FetchStats serial = suite.runOne(w, grid[c]);
            expectEqualStats(result.cell(c, w), serial,
                             "config " + std::to_string(c) +
                                 " workload " + suite.name(w));
        }
    }
}

TEST(Sweep, SuiteMergeMatchesRunSuite)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult swept = runSweep(suite, grid, 4);
    ASSERT_EQ(swept.configCount(), grid.size());
    for (size_t c = 0; c < grid.size(); ++c)
        expectEqualStats(swept.suite(c), runSuite(suite, grid[c]),
                         "config " + std::to_string(c));
}

TEST(Sweep, SinkReceivesEachCellOnce)
{
    // The small grid plus an L2 variant of its third config: those
    // two are derived from one shared miss stream (sim/collapse.h),
    // the rest replay in full, and every cell must reach the sink
    // exactly once with its own stats and timing.
    SuiteTraces suite(specSuite(), 15000);
    std::vector<FetchConfig> grid = smallGrid();
    grid.push_back(withOnChipL2(economyBaseline(), 128 * 1024, 64, 4));

    std::mutex mutex;
    std::map<std::pair<size_t, size_t>, int> calls;
    runSweep(suite, grid, 4,
             [&](size_t c, size_t w, const FetchStats &stats,
                 const CellTiming &timing) {
                 std::lock_guard<std::mutex> lock(mutex);
                 const std::string label = "cell " + std::to_string(c) +
                     "," + std::to_string(w);
                 ++calls[{c, w}];
                 expectEqualStats(stats, suite.runOne(w, grid[c]), label);
                 EXPECT_EQ(timing.instructions, stats.instructions)
                     << label;
             });
    EXPECT_EQ(calls.size(), grid.size() * suite.count());
    for (const auto &[cell, count] : calls)
        EXPECT_EQ(count, 1) << cell.first << "," << cell.second;
}

TEST(Sweep, OneThreadEqualsManyThreads)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult serial = runSweep(suite, grid, 1);
    const SweepResult parallel = runSweep(suite, grid, 8);
    for (size_t c = 0; c < grid.size(); ++c)
        for (size_t w = 0; w < suite.count(); ++w)
            expectEqualStats(serial.cell(c, w), parallel.cell(c, w),
                             "cell " + std::to_string(c) + "," +
                                 std::to_string(w));
}

TEST(Sweep, RecordsPerCellTiming)
{
    SuiteTraces suite(specSuite(), 15000);
    const std::vector<FetchConfig> grid = smallGrid();
    const SweepResult result = runSweep(suite, grid, 2);

    for (size_t c = 0; c < grid.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            const CellTiming &t = result.timing(c, w);
            EXPECT_GE(t.wallSeconds, 0.0);
            // The timing rides alongside the stats at the same index:
            // its instruction count must be the cell's own.
            EXPECT_EQ(t.instructions,
                      result.cell(c, w).instructions)
                << "cell " << c << "," << w;
        }
    }
}

TEST(Sweep, EmptyGrid)
{
    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso)}, 5000);
    const SweepResult result = runSweep(suite, {}, 4);
    EXPECT_EQ(result.configCount(), 0u);
}

TEST(Sweep, InvalidConfigThrowsBeforeRunning)
{
    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso)}, 5000);
    FetchConfig bad = economyBaseline();
    bad.streamBufferLines = 4; // Stream buffer without pipelining.
    EXPECT_THROW(runSweep(suite, {economyBaseline(), bad}, 4),
                 std::invalid_argument);
}

TEST(Sweep, ThreadsEnvOverride)
{
    unsetenv("IBS_THREADS");
    const unsigned fallback = sweepThreads();
    EXPECT_GE(fallback, 1u);

    setenv("IBS_THREADS", "3", 1);
    EXPECT_EQ(sweepThreads(), 3u);

    // Malformed values fall back (with a warning on stderr).
    setenv("IBS_THREADS", "3threads", 1);
    EXPECT_EQ(sweepThreads(), fallback);
    setenv("IBS_THREADS", "0", 1);
    EXPECT_EQ(sweepThreads(), fallback);
    setenv("IBS_THREADS", "-2", 1);
    EXPECT_EQ(sweepThreads(), fallback);

    // One bound for the sweeps and the pool (ThreadPool::shared), so
    // a count past it cannot wrap in the narrowing to unsigned.
    setenv("IBS_THREADS", "256", 1);
    EXPECT_EQ(sweepThreads(), 256u);
    for (const char *over : {"257", "4294967296", "4294967297"}) {
        setenv("IBS_THREADS", over, 1);
        EXPECT_EQ(sweepThreads(), fallback) << over;
    }
    unsetenv("IBS_THREADS");
}

} // namespace
} // namespace ibs
