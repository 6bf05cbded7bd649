/**
 * @file
 * Tapeworm driver implementation.
 */

#include "sim/tapeworm.h"

#include <algorithm>
#include <stdexcept>

#include "cache/cache.h"
#include "vm/address_space.h"
#include "vm/page.h"

namespace ibs {

TapewormResult
runTapeworm(const RunTrace &trace, const TapewormConfig &config,
            uint64_t base_seed)
{
    if (trace.lineBytes == 0 || trace.lineBytes > PAGE_SIZE) {
        throw std::invalid_argument(
            "runTapeworm: trace runs must be cut at most at page size");
    }
    const uint64_t line_bytes = config.cache.lineBytes;
    TapewormResult result;
    for (uint32_t trial = 0; trial < config.trials; ++trial) {
        MemoryMap map(makeAllocator(config.policy, config.frames,
                                    config.cache.colors(),
                                    base_seed + trial));
        Cache cache(config.cache);
        uint64_t misses = 0;
        for (const FetchRun &run : trace.runs) {
            // The run stays in one page, so the page offset carries
            // it contiguously into one frame: first touches happen in
            // the same order as per-instruction translation.
            uint64_t paddr = map.translate(run.asid, run.startVaddr);
            uint64_t left = run.count;
            while (left != 0) {
                const uint64_t piece = std::min(
                    left, (line_bytes - (paddr & (line_bytes - 1))) /
                        kInstrBytes);
                if (!cache.accessLine(paddr, piece))
                    ++misses;
                paddr += piece * kInstrBytes;
                left -= piece;
            }
        }
        const double n = static_cast<double>(trace.instructions);
        const double mpi = n > 0 ? static_cast<double>(misses) / n : 0;
        result.mpi100.add(mpi * 100.0);
        result.cpiInstr.add(mpi * config.missPenalty);
    }
    return result;
}

} // namespace ibs
