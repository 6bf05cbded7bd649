/**
 * @file
 * Sweep-collapsing implementation.
 */

#include "sim/collapse.h"

#include <optional>

#include "cache/cache.h"
#include "obs/registry.h"

namespace ibs {

bool
collapseEligible(const FetchConfig &config)
{
    return !config.bypass && !config.pipelined && !config.l2Unified &&
        !config.cachePrefetchOnlyIfUsed;
}

std::string
collapseKey(const FetchConfig &config)
{
    // Eligibility pins the interface flags and a blocking fill's
    // timing never reaches the L1, so the L1 side is the L1 geometry
    // and the burst it allocates; a real L2 additionally needs the
    // miss order.
    return config.l1.toString() + "|pf" +
        std::to_string(config.prefetchLines) +
        (config.realL2() ? "|l2" : "");
}

FetchStats
deriveCell(const MissStream &ms, const FetchConfig &config)
{
    // Exact by construction: missBlocking stalls each miss for the
    // whole burst (fillCycles((1 + prefetchLines) * lineBytes)),
    // issues prefetchLines prefetches per miss, consults the L2 for
    // the demand line and then each prefetched line, and adds
    // fillCycles(l2.lineBytes) to both the cycle count and the L2
    // stall component per L2 miss. Only instructions and l1Misses
    // come from the capture; everything priced is this config's.
    const uint64_t burst = 1 + uint64_t{config.prefetchLines};
    const uint32_t line_bytes = config.l1.lineBytes;
    FetchStats stats;
    stats.instructions = ms.instructions;
    stats.l1Misses = ms.l1Misses;
    stats.stallCyclesL1 =
        ms.l1Misses * config.l1Fill.fillCycles(burst * line_bytes);
    stats.prefetchesIssued = ms.l1Misses * config.prefetchLines;

    std::optional<Cache> l2;
    if (config.realL2()) {
        l2.emplace(config.l2);
        ms.trace.forEachLine([&](uint64_t line) {
            for (uint64_t k = 0; k < burst; ++k)
                l2->access(line + k * line_bytes);
        });
        stats.l2Accesses = l2->accesses();
        stats.l2Misses = l2->misses();
        stats.stallCyclesL2 =
            stats.l2Misses * config.l2Fill.fillCycles(config.l2.lineBytes);
    }
    stats.cycles =
        stats.instructions + stats.stallCyclesL1 + stats.stallCyclesL2;

    obs::Registry &registry = obs::Registry::global();
    if (registry.enabled()) {
        registry.add("workload.model.runs_emitted", ms.runsReplayed);
        registry.add("cache.l1.accesses", ms.l1Accesses);
        registry.add("cache.l1.hits", ms.l1Hits);
        registry.add("cache.l1.misses", ms.l1Accesses - ms.l1Hits);
        registry.add("cache.l1.evictions", ms.l1Evictions);
        if (l2)
            l2->publishCounters(registry, "l2");
        // FetchEngine publishes the stream buffer and the interface
        // counters unconditionally; the bypass and stream-buffer ones
        // are zero for eligible configs.
        registry.add("stream_buffer.fetch.inserts", 0);
        registry.add("stream_buffer.fetch.evictions", 0);
        registry.add("stream_buffer.fetch.cancelled", 0);
        registry.add("fetch.engine.instructions", stats.instructions);
        registry.add("fetch.engine.cycles", stats.cycles);
        registry.add("fetch.engine.l1_misses", stats.l1Misses);
        registry.add("fetch.engine.prefetches_issued",
                     stats.prefetchesIssued);
        registry.add("fetch.engine.prefetches_used", 0);
        registry.add("fetch.engine.prefetches_cancelled", 0);
        registry.add("fetch.engine.bypass_window_hits", 0);
        registry.add("fetch.engine.stream_buffer_hits", 0);
        registry.add("fetch.engine.batched_runs", ms.batchedRuns);
        registry.add("fetch.engine.batch_fallbacks", ms.batchFallbacks);
        registry.observe("sim.cell.instructions", stats.instructions);
    }
    return stats;
}

} // namespace ibs
