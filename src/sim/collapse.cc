/**
 * @file
 * Sweep-collapsing implementation.
 */

#include "sim/collapse.h"

#include "cache/cache.h"
#include "obs/registry.h"

namespace ibs {

bool
collapseEligible(const FetchConfig &config)
{
    return config.hasL2 && !config.perfectL2 && !config.bypass &&
        config.prefetchLines == 0 && !config.pipelined &&
        config.streamBufferLines == 0 && !config.l2Unified &&
        !config.cachePrefetchOnlyIfUsed;
}

std::string
collapseKey(const FetchConfig &config)
{
    // Everything but the L2 geometry and L2 fill timing; eligibility
    // pins the interface flags, so the L1 side is the whole key.
    return config.l1.toString() + '|' + config.l1Fill.toString();
}

FetchStats
deriveCell(const MissStream &ms, const FetchConfig &config)
{
    Cache l2(config.l2);
    ms.trace.forEachLine([&](uint64_t addr) { l2.access(addr); });

    // Exact by construction: missBlocking charges the L1 fill
    // identically under a perfect and a real L2 (the capture and the
    // cell see the same stream, so instructions/cycles/stallCyclesL1/
    // l1Misses carry over), consults the L2 once per L1 miss
    // (l2Accesses = stream length), and adds fillCycles(l2.lineBytes)
    // to both the cycle count and the L2 stall component per L2 miss.
    FetchStats stats = ms.l1Stats;
    stats.l2Accesses = ms.trace.misses;
    stats.l2Misses = l2.misses();
    stats.stallCyclesL2 =
        stats.l2Misses * config.l2Fill.fillCycles(config.l2.lineBytes);
    stats.cycles += stats.stallCyclesL2;

    obs::Registry &registry = obs::Registry::global();
    if (registry.enabled()) {
        registry.add("workload.model.runs_emitted", ms.runsReplayed);
        registry.add("cache.l1.accesses", ms.l1Accesses);
        registry.add("cache.l1.hits", ms.l1Hits);
        registry.add("cache.l1.misses", ms.l1Accesses - ms.l1Hits);
        registry.add("cache.l1.evictions", ms.l1Evictions);
        l2.publishCounters(registry, "l2");
        // FetchEngine publishes the stream buffer and the interface
        // counters unconditionally; they are zero for eligible
        // configs.
        registry.add("stream_buffer.fetch.inserts", 0);
        registry.add("stream_buffer.fetch.evictions", 0);
        registry.add("stream_buffer.fetch.cancelled", 0);
        registry.add("fetch.engine.instructions", stats.instructions);
        registry.add("fetch.engine.cycles", stats.cycles);
        registry.add("fetch.engine.l1_misses", stats.l1Misses);
        registry.add("fetch.engine.prefetches_issued", 0);
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
