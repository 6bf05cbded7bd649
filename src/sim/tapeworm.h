/**
 * @file
 * Tapeworm II: trap-driven, multi-trial simulation of
 * physically-indexed caches.
 *
 * The original Tapeworm ran inside the OS kernel, so every trial saw
 * the page mappings the real OS happened to hand out; repeating a
 * workload five times yielded the CPIinstr variance of Figure 5.
 * This driver reproduces the experiment: each trial replays the same
 * workload trace through the same cache, but with a fresh
 * virtual-to-physical mapping drawn from the configured OS page-
 * allocation policy. Kernel (kseg0) code keeps its fixed direct
 * mapping across trials, exactly as on the real machine.
 *
 * The trace is a run trace cut at most at page size, normally the
 * page trace (generateRunTrace or SuiteTraces::runTrace at
 * PAGE_SIZE): a run never crosses a page and carries its ASID, so a
 * trial translates once per run and probes once per cache-line piece
 * of it, with the same result as translating and probing every
 * instruction.
 */

#ifndef IBS_SIM_TAPEWORM_H
#define IBS_SIM_TAPEWORM_H

#include <cstdint>
#include <vector>

#include "cache/config.h"
#include "stats/summary.h"
#include "trace/run_trace.h"
#include "vm/page_allocator.h"

namespace ibs {

/** One Figure 5 experiment point. */
struct TapewormConfig
{
    CacheConfig cache{8 * 1024, 1, 32};
    uint32_t missPenalty = 7;  ///< Cycles (32-B line from on-chip L2).
    PagePolicy policy = PagePolicy::Random;
    uint64_t frames = 16384;   ///< Physical pool (64 MB of 4-KB pages).
    uint32_t trials = 5;       ///< The paper used 5.
};

/** Across-trial distribution of the metrics. */
struct TapewormResult
{
    RunningStats cpiInstr;
    RunningStats mpi100;
};

/**
 * Run the multi-trial experiment.
 *
 * @param trace the workload's instruction trace, replayed unchanged
 *        every trial; its runs must carry ASIDs (RunStream's do) and
 *        its lineBytes must not exceed PAGE_SIZE
 * @param config experiment point
 * @param base_seed trial i re-seeds the page allocator with
 *        base_seed + i
 * @throws std::invalid_argument if trace.lineBytes is 0 or above
 *         PAGE_SIZE (runs could then cross a page)
 */
TapewormResult runTapeworm(const RunTrace &trace,
                           const TapewormConfig &config,
                           uint64_t base_seed = 0x7a9e);

} // namespace ibs

#endif // IBS_SIM_TAPEWORM_H
