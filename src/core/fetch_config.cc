/**
 * @file
 * FetchConfig implementation.
 */

#include "core/fetch_config.h"

#include <sstream>
#include <stdexcept>

namespace ibs {

void
FetchConfig::validate() const
{
    l1.validate();
    if (hasL2)
        l2.validate();
    if (l1Fill.bytesPerCycle == 0 || l2Fill.bytesPerCycle == 0)
        throw std::invalid_argument("bandwidth must be nonzero");
    if (bypass && prefetchLines + 1ull > 64)
        throw std::invalid_argument(
            "bypass refill window (prefetchLines + 1) is limited to "
            "64 lines");
    if (pipelined && prefetchLines > 0)
        throw std::invalid_argument(
            "pipelined mode uses the stream buffer, not "
            "prefetch-on-miss");
    if (cachePrefetchOnlyIfUsed && !bypass)
        throw std::invalid_argument(
            "cachePrefetchOnlyIfUsed requires bypass buffers");
    if (streamBufferLines > 0 && !pipelined)
        throw std::invalid_argument(
            "a stream buffer requires the pipelined interface");
}

std::string
FetchConfig::toString() const
{
    std::ostringstream os;
    os << "L1 " << l1.toString() << " fill " << l1Fill.toString();
    if (hasL2) {
        os << (perfectL2 ? ", perfect L2" : ", L2 ") ;
        if (!perfectL2)
            os << l2.toString() << " fill " << l2Fill.toString();
    } else if (perfectL2) {
        os << ", perfect backing";
    }
    if (prefetchLines)
        os << ", prefetch " << prefetchLines;
    if (bypass)
        os << ", bypass";
    if (cachePrefetchOnlyIfUsed)
        os << " (cache-if-used)";
    if (pipelined)
        os << ", pipelined + " << streamBufferLines
           << "-line stream buffer";
    return os.str();
}

FetchConfig
economyBaseline()
{
    FetchConfig config;
    config.l1 = CacheConfig{8 * 1024, 1, 32};
    config.l1Fill = MemoryTiming{30, 4};
    config.hasL2 = false;
    config.l2Fill = MemoryTiming{30, 4};
    return config;
}

FetchConfig
highPerfBaseline()
{
    FetchConfig config;
    config.l1 = CacheConfig{8 * 1024, 1, 32};
    config.l1Fill = MemoryTiming{12, 8};
    config.hasL2 = false;
    config.l2Fill = MemoryTiming{12, 8};
    return config;
}

FetchConfig
withOnChipL2(FetchConfig base, uint64_t l2_size, uint32_t l2_line,
             uint32_t l2_assoc)
{
    // The baseline's backing store now fills the L2; the L1 fills
    // from the on-chip L2 at 6 cycles, 16 bytes/cycle (§5.1).
    base.l2Fill = base.hasL2 ? base.l2Fill : base.l1Fill;
    base.hasL2 = true;
    base.l2 = CacheConfig{l2_size, l2_assoc, l2_line};
    base.l1Fill = MemoryTiming{6, 16};
    return base;
}

FetchConfig
withL1Bandwidth(FetchConfig config, uint32_t bytes_per_cycle)
{
    config.l1Fill.bytesPerCycle = bytes_per_cycle;
    return config;
}

} // namespace ibs
