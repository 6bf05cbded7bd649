/**
 * @file
 * Parallel parameter-sweep executor, for the benches and the sweep
 * server alike.
 *
 * Every table/figure bench replays the same immutable SuiteTraces
 * through a grid of FetchConfigs. Each (config, workload) cell is an
 * independent SuiteTraces::runOne call — a FetchEngine built fresh
 * from the config and driven by one memoized run trace, or, for a
 * blocking fill, a derivation from the memoized capture of its L1
 * front end (sim/collapse.h) — so the grid parallelizes perfectly. runSweep
 * schedules one task per cell onto a pool of
 * std::thread workers and hands each finished cell to a sink — the
 * SweepResult overload stores it into a pre-sized vector addressed
 * by (config, workload) index, the server streams it as a frame.
 * Because no cell reads another cell's output and the merge in
 * SweepResult::suite always folds workloads in index order, the
 * result is bit-for-bit identical to the serial path regardless of
 * how the scheduler interleaves the work.
 *
 * Worker count: the `threads` argument if nonzero, else the
 * IBS_THREADS environment variable, else std::thread's hardware
 * concurrency. One thread means the calling thread runs every cell
 * itself (serial fallback, no pool).
 */

#ifndef IBS_SIM_SWEEP_H
#define IBS_SIM_SWEEP_H

#include <cstddef>
#include <functional>
#include <vector>

#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "sim/runner.h"

namespace ibs {

/**
 * Worker count for parallel sweeps: IBS_THREADS if set and valid
 * (1 to 256), else hardware concurrency, always at least 1.
 */
unsigned sweepThreads();

/**
 * Wall-clock cost of one sweep cell, recorded by runSweep for the
 * machine-readable bench reports. Timing is kept outside FetchStats:
 * the simulated counters are bit-identical across thread counts and
 * runs, the wall-clock numbers are not.
 */
struct CellTiming
{
    double wallSeconds = 0.0;  ///< Simulation time of this cell.
    uint64_t instructions = 0; ///< Instructions the cell simulated.
};

/** Per-cell results of a (config × workload) sweep. */
class SweepResult
{
  public:
    SweepResult(size_t configs, size_t workloads)
        : workloads_(workloads), cells_(configs * workloads),
          timings_(configs * workloads)
    {}

    size_t configCount() const
    {
        return workloads_ ? cells_.size() / workloads_ : 0;
    }
    size_t workloadCount() const { return workloads_; }

    /** Stats of one (config, workload) cell. */
    const FetchStats &
    cell(size_t config, size_t workload) const
    {
        return cells_[config * workloads_ + workload];
    }

    /** Wall-clock timing of one (config, workload) cell. */
    const CellTiming &
    timing(size_t config, size_t workload) const
    {
        return timings_[config * workloads_ + workload];
    }

    /** Store one cell. runSweep's sink calls this concurrently for
     *  distinct cells, which own distinct slots. */
    void
    record(size_t config, size_t workload, const FetchStats &stats,
           const CellTiming &timing)
    {
        cells_[config * workloads_ + workload] = stats;
        timings_[config * workloads_ + workload] = timing;
    }

    /**
     * Suite-level stats for one config: cells merged in workload
     * index order, exactly as a serial loop of runOne calls would.
     * FetchStats::merge is pure counter addition, so the merge is
     * order-independent; fixing the order anyway makes the
     * determinism contract trivially auditable.
     */
    FetchStats
    suite(size_t config) const
    {
        FetchStats total;
        for (size_t w = 0; w < workloads_; ++w)
            total.merge(cell(config, w));
        return total;
    }

  private:
    size_t workloads_;
    std::vector<FetchStats> cells_;   ///< Config-major.
    std::vector<CellTiming> timings_; ///< Config-major, same index.
};

/**
 * Receives one finished cell on the pool thread that finished it, so
 * calls for different cells may run concurrently. A sink that throws
 * aborts the sweep: runSweep rethrows once the cells in flight have
 * drained, and the remaining cells never arrive.
 */
using CellSink = std::function<void(size_t config, size_t workload,
                                    const FetchStats &stats,
                                    const CellTiming &timing)>;

/**
 * Run every (config × workload) cell of the grid, in parallel when
 * more than one worker is available, handing each finished cell to
 * `sink`.
 *
 * One pool task per cell, config-major; each calls
 * SuiteTraces::runOne, so a cell's stats do not depend on what else
 * is in the grid. Emits one "cell" trace span per task when
 * IBS_OBS_TRACE is set; the cell's timing is that span.
 *
 * @param suite immutable traces, shared const across workers
 * @param configs grid points (validated before any thread starts)
 * @param threads worker count; 0 means sweepThreads()
 * @param sink called once per cell (see CellSink on aborts)
 */
void runSweep(const SuiteTraces &suite,
              const std::vector<FetchConfig> &configs, unsigned threads,
              const CellSink &sink);

/**
 * Run the grid and collect it: per-cell stats and timings,
 * identical to calling runOne serially.
 */
SweepResult runSweep(const SuiteTraces &suite,
                     const std::vector<FetchConfig> &configs,
                     unsigned threads = 0);

} // namespace ibs

#endif // IBS_SIM_SWEEP_H
