/**
 * @file
 * Full-replay oracle, serial suite helper and all-field FetchStats
 * comparator for tests.
 *
 * SuiteTraces::runOne derives every L2 variant from a memoized miss
 * stream (sim/collapse.h). replayCell is the other side of that
 * comparison: the cell simulated in full by a FetchEngine fed the
 * workload's run trace, publishing to the obs registry exactly what
 * runOne's replay path publishes. It must not call runOne.
 *
 * runSuite is the serial reference for the sweep executor: runOne
 * over every workload, merged in index order. The products take
 * their suite totals from runSweep and SweepResult::suite.
 */

#ifndef IBS_TESTS_REPLAY_ORACLE_H
#define IBS_TESTS_REPLAY_ORACLE_H

#include <gtest/gtest.h>

#include <string>

#include "core/fetch_engine.h"
#include "obs/registry.h"
#include "sim/runner.h"

namespace ibs {

/** EXPECT equality of every FetchStats counter, tagged `label`. */
inline void
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

/** The (config, workload `w`) cell replayed in full through a fresh
 *  FetchEngine, for any config. */
inline FetchStats
replayCell(const SuiteTraces &suite, size_t w, const FetchConfig &config)
{
    FetchEngine engine(config);
    const RunTrace &runs = suite.runTrace(w, config.l1.lineBytes);
    for (const FetchRun &run : runs.runs)
        engine.fetchRun(run);
    obs::Registry &registry = obs::Registry::global();
    if (registry.enabled()) {
        registry.add("workload.model.runs_emitted", runs.runs.size());
        engine.publishCounters(registry);
        registry.observe("sim.cell.instructions",
                         engine.stats().instructions);
    }
    return engine.stats();
}

/** The whole suite under `config`, one runOne call per workload in
 *  index order, merged (equal-weight average). */
inline FetchStats
runSuite(const SuiteTraces &suite, const FetchConfig &config)
{
    FetchStats total;
    for (size_t w = 0; w < suite.count(); ++w)
        total.merge(suite.runOne(w, config));
    return total;
}

} // namespace ibs

#endif // IBS_TESTS_REPLAY_ORACLE_H
