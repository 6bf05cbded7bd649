/**
 * @file
 * Sweep-collapsing implementation.
 */

#include "sim/collapse.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "cache/cache.h"
#include "obs/registry.h"
#include "stats/report.h"

namespace ibs {

namespace {

/** L2 replay result of one member (the counters Cache would hold). */
struct L2Counts
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

/**
 * Full FetchStats of a variant, derived from the capture run. Exact
 * by construction: missBlocking charges the L1 fill identically
 * under a perfect and a real L2 (the capture and the variant see the
 * same stream, so instructions/cycles/stallCyclesL1/l1Misses carry
 * over), consults the L2 once per L1 miss (l2Accesses = stream
 * length), and adds fillCycles(l2.lineBytes) to both the cycle count
 * and the L2 stall component per L2 miss. Every prefetch, bypass and
 * stream-buffer counter is structurally zero for eligible configs.
 */
FetchStats
deriveStats(const MissStream &ms, const FetchConfig &variant,
            uint64_t l2_misses)
{
    FetchStats stats = ms.l1Stats;
    stats.l2Accesses = ms.trace.misses;
    stats.l2Misses = l2_misses;
    stats.stallCyclesL2 =
        l2_misses * variant.l2Fill.fillCycles(variant.l2.lineBytes);
    stats.cycles += stats.stallCyclesL2;
    return stats;
}

/**
 * Publish exactly what runOne would have published for this cell:
 * the capture run's L1/engine counters, the replayed L2 counters,
 * zeros for the stream buffer (FetchEngine publishes those
 * unconditionally), and the per-cell histogram sample. Keeps obs
 * snapshots bit-identical to running every cell through runOne.
 */
void
publishCollapsedCell(const MissStream &ms, const FetchStats &stats,
                     const L2Counts &l2)
{
    obs::Registry &registry = obs::Registry::global();
    if (!registry.enabled())
        return;
    registry.add("workload.model.runs_emitted", ms.runsReplayed);
    registry.add("cache.l1.accesses", ms.l1Accesses);
    registry.add("cache.l1.hits", ms.l1Hits);
    registry.add("cache.l1.misses", ms.l1Accesses - ms.l1Hits);
    registry.add("cache.l1.evictions", ms.l1Evictions);
    registry.add("cache.l2.accesses", l2.accesses);
    registry.add("cache.l2.hits", l2.hits);
    registry.add("cache.l2.misses", l2.misses);
    registry.add("cache.l2.evictions", l2.evictions);
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

} // namespace

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
    // Built field-by-field (not CacheConfig::toString, which omits
    // the replacement policy).
    std::ostringstream os;
    os << config.l1.sizeBytes << '/' << config.l1.assoc << '/'
       << config.l1.lineBytes << '/'
       << replacementName(config.l1.replacement) << '|'
       << config.l1Fill.latencyCycles << ':'
       << config.l1Fill.bytesPerCycle;
    return os.str();
}

CollapsePlan
planCollapse(const std::vector<FetchConfig> &configs)
{
    CollapsePlan plan;
    // std::map keys sort lexicographically, but groups are re-ordered
    // by leader index below, so the plan is independent of key
    // spelling.
    std::map<std::string, std::vector<size_t>> buckets;
    for (size_t c = 0; c < configs.size(); ++c) {
        if (collapseEligible(configs[c]))
            buckets[collapseKey(configs[c])].push_back(c);
        else
            plan.singles.push_back(c);
    }
    for (auto &kv : buckets) {
        if (kv.second.size() >= 2)
            plan.groups.push_back(CollapseGroup{std::move(kv.second)});
        else
            plan.singles.push_back(kv.second.front());
    }
    std::sort(plan.groups.begin(), plan.groups.end(),
              [](const CollapseGroup &a, const CollapseGroup &b) {
                  return a.members.front() < b.members.front();
              });
    std::sort(plan.singles.begin(), plan.singles.end());
    return plan;
}

void
runCollapsedGroup(const SuiteTraces &suite, size_t workload,
                  const std::vector<FetchConfig> &configs,
                  const CollapseGroup &group, const CellSink &sink)
{
    // Capture (or fetch from the memo) the shared miss stream. Its
    // cost lands on the leader cell's timing; warm memo hits make it
    // near-zero, which is honest — the run really was skipped.
    WallTimer capture_timer;
    const MissStream &ms =
        suite.missStream(workload, configs[group.members.front()]);
    const double capture_seconds = capture_timer.seconds();

    // Replay the miss stream through one Cache per distinct L2
    // config. Cache is deterministic in its config (including the
    // Random-replacement LFSR seed), so members with equal L2 configs
    // share one replay: fig4's economy and high-performance arms
    // replay each geometry once.
    std::map<std::tuple<uint64_t, uint32_t, uint32_t, Replacement>,
             L2Counts>
        replayed;
    for (size_t k = 0; k < group.members.size(); ++k) {
        const size_t c = group.members[k];
        const CacheConfig &g = configs[c].l2;
        WallTimer timer;
        const auto key = std::make_tuple(g.sizeBytes, g.assoc,
                                         g.lineBytes, g.replacement);
        auto it = replayed.find(key);
        if (it == replayed.end()) {
            Cache cache(g);
            ms.trace.forEachLine(
                [&](uint64_t addr) { cache.access(addr); });
            it = replayed
                     .emplace(key, L2Counts{cache.accesses(),
                                            cache.hits(),
                                            cache.misses(),
                                            cache.evictions()})
                     .first;
        }
        const FetchStats stats = deriveStats(ms, configs[c],
                                             it->second.misses);
        publishCollapsedCell(ms, stats, it->second);
        const bool leader = k == 0;
        sink(c, workload, stats,
             CellTiming{timer.seconds() +
                            (leader ? capture_seconds : 0.0),
                        stats.instructions, !leader});
    }
}

} // namespace ibs
