/**
 * @file
 * Parallel sweep executor implementation.
 */

#include "sim/sweep.h"

#include <string>
#include <thread>

#include "obs/progress.h"
#include "obs/timer.h"
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

    // One task per cell, config-major. A cell whose run trace or
    // miss stream (sim/collapse.h) another cell is still building
    // waits on that memo slot, so tasks need no ordering; each hands
    // only its own cell to the sink (see sim/parallel.h for the
    // determinism contract).
    obs::SweepProgress progress("sweep", total);
    parallelFor(total, threads, [&](size_t i) {
        const size_t c = i / workloads;
        const size_t w = i % workloads;
        obs::ScopedTimer timer(
            "cell " + std::to_string(c) + ":" + suite.name(w), "sweep");
        const FetchStats stats = suite.runOne(w, configs[c]);
        timer.stop();
        sink(c, w, stats, CellTiming{timer.seconds(), stats.instructions});
        progress.cellDone(stats.instructions);
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
