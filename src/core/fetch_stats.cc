/**
 * @file
 * FetchStats accounting identities.
 */

#include "core/fetch_stats.h"

#include <stdexcept>
#include <string>

#include "core/fetch_config.h"

namespace ibs {

void
FetchStats::check(const FetchConfig &config) const
{
    const auto require = [&config](bool holds, const char *identity) {
        if (!holds)
            throw std::logic_error(
                std::string("FetchStats identity broken: ") + identity +
                " under " + config.toString());
    };
    require(cycles == instructions + stallCyclesL1 + stallCyclesL2,
            "cycles == instructions + stallCyclesL1 + stallCyclesL2");
    require(l2Misses <= l2Accesses, "l2Misses <= l2Accesses");
    require(l2DataMisses <= l2DataAccesses,
            "l2DataMisses <= l2DataAccesses");
    require(prefetchesUsed <= prefetchesIssued,
            "prefetchesUsed <= prefetchesIssued");
    require(config.bypass || bypassHits == 0,
            "bypassHits == 0 without bypass");
    require(config.pipelined || streamBufferHits == 0,
            "streamBufferHits == 0 unless pipelined");
    const uint64_t burst = 1 + uint64_t{config.prefetchLines};
    if (!config.realL2()) {
        require(l2Accesses == 0 && l2DataAccesses == 0,
                "no L2 accesses without a real L2");
    } else if (!config.pipelined) {
        require(l2Accesses == l1Misses * burst,
                "l2Accesses == l1Misses * (1 + prefetchLines)");
    }
    if (config.pipelined)
        return; // The stream buffer prefetches on its own schedule.
    require(prefetchesIssued == l1Misses * config.prefetchLines,
            "prefetchesIssued == l1Misses * prefetchLines");
    if (!config.bypass) {
        // A blocking fill stalls each miss for its whole burst.
        require(stallCyclesL1 ==
                    l1Misses *
                        config.l1Fill.fillCycles(burst *
                                                 config.l1.lineBytes),
                "stallCyclesL1 == l1Misses * l1Fill.fillCycles((1 + "
                "prefetchLines) * l1.lineBytes)");
    }
}

} // namespace ibs
