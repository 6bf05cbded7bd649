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
    if (!config.hasL2 || config.perfectL2) {
        require(l2Accesses == 0 && l2DataAccesses == 0,
                "no L2 accesses without a real L2");
    } else if (!config.pipelined) {
        require(l2Accesses ==
                    l1Misses * (1 + uint64_t{config.prefetchLines}),
                "l2Accesses == l1Misses * (1 + prefetchLines)");
    }
}

} // namespace ibs
