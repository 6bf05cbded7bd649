/**
 * @file
 * CML-buffer experiment driver: direct-mapped physically-indexed
 * cache with dynamic page recoloring, against plain direct-mapped
 * and set-associative caches of the same size — the §5.1 comparison.
 *
 * It replays the same page trace as the Tapeworm driver
 * (sim/tapeworm.h) but translates every instruction: a recolor in the
 * middle of a run moves the rest of that run to a new frame.
 */

#ifndef IBS_SIM_CML_SIM_H
#define IBS_SIM_CML_SIM_H

#include <cstdint>

#include "cache/config.h"
#include "trace/run_trace.h"
#include "vm/cml.h"
#include "vm/page_allocator.h"

namespace ibs {

/** One CML experiment. */
struct CmlExperiment
{
    CacheConfig cache{32 * 1024, 1, 32, Replacement::LRU};
    uint32_t missPenalty = 7;
    CmlConfig cml;
    PagePolicy policy = PagePolicy::Random;
    uint64_t frames = 16384;
    uint64_t seed = 0xc311;
};

/** Results with and without the CML mechanism. */
struct CmlResult
{
    double cpiBaseline = 0;  ///< Plain DM, same mapping seed.
    double cpiWithCml = 0;   ///< DM + CML recoloring (incl. remap
                             ///< overhead).
    double cpiRecolorOverhead = 0; ///< The remap-cost share of the
                                   ///< CML CPI.
    uint64_t recolors = 0;
};

/**
 * Run the paired experiment on one workload's trace.
 *
 * @param trace instruction runs tagged with their ASIDs (RunStream's
 *        are), normally the page trace
 */
CmlResult runCml(const RunTrace &trace,
                 const CmlExperiment &experiment);

} // namespace ibs

#endif // IBS_SIM_CML_SIM_H
