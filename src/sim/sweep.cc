/**
 * @file
 * Parallel sweep executor implementation.
 */

#include "sim/sweep.h"

#include <string>
#include <thread>

#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/collapse.h"
#include "sim/parallel.h"

namespace ibs {

unsigned
sweepThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const uint64_t n = parseEnvCount("IBS_THREADS", hw ? hw : 1);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

void
runSweep(const SuiteTraces &suite, const std::vector<FetchConfig> &configs,
         unsigned threads, const CellSink &sink)
{
    // Fail fast, on the calling thread, before any work is scheduled.
    for (const FetchConfig &config : configs)
        config.validate();

    const size_t workloads = suite.count();
    const size_t total = configs.size() * workloads;
    if (total == 0)
        return;

    if (threads == 0)
        threads = sweepThreads();

    // Collapse configs that share an L1 front end (sim/collapse.h);
    // the rest run per cell. The plan counters are pure functions of
    // (grid, workloads), hence thread-count-invariant.
    const CollapsePlan plan = planCollapse(configs);
    obs::Registry &registry = obs::Registry::global();
    if (registry.enabled()) {
        registry.add("sim.sweep.groups", plan.groups.size());
        registry.add("sim.sweep.collapsed_cells",
                     plan.collapsedCells(workloads));
        registry.add("sim.sweep.fallback_cells",
                     plan.singles.size() * workloads);
    }

    obs::SweepProgress progress("sweep", total);
    const CellSink finish = [&](size_t c, size_t w,
                                const FetchStats &stats,
                                const CellTiming &timing) {
        sink(c, w, stats, timing);
        progress.cellDone(stats.instructions);
    };

    // Task space: one item per (single config, workload) cell plus
    // one per (group, workload) — a group's capture and derivations
    // run inside one task, so no task depends on another. Each task
    // hands only its own cells to the sink (see sim/parallel.h for
    // the scheduling and determinism contract).
    const size_t single_tasks = plan.singles.size() * workloads;
    const size_t group_tasks = plan.groups.size() * workloads;
    parallelFor(single_tasks + group_tasks, threads, [&](size_t i) {
        if (i < single_tasks) {
            const size_t c = plan.singles[i / workloads];
            const size_t w = i % workloads;
            obs::ScopedTimer timer(
                "cell " + std::to_string(c) + ":" + suite.name(w),
                "sweep");
            const FetchStats stats = suite.runOne(w, configs[c]);
            timer.stop();
            finish(c, w, stats,
                   CellTiming{timer.seconds(), stats.instructions, false});
            return;
        }
        const size_t g = (i - single_tasks) / workloads;
        const size_t w = (i - single_tasks) % workloads;
        obs::ScopedTimer timer(
            "group " + std::to_string(g) + ":" + suite.name(w),
            "sweep");
        runCollapsedGroup(suite, w, configs, plan.groups[g], finish);
    });
}

SweepResult
runSweep(const SuiteTraces &suite, const std::vector<FetchConfig> &configs,
         unsigned threads)
{
    SweepResult result(configs.size(), suite.count());
    runSweep(suite, configs, threads,
             [&result](size_t c, size_t w, const FetchStats &stats,
                       const CellTiming &timing) {
                 result.record(c, w, stats, timing);
             });
    return result;
}

} // namespace ibs
