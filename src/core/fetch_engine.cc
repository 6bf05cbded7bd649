/**
 * @file
 * FetchEngine implementation.
 */

#include "core/fetch_engine.h"

#include <cassert>

namespace ibs {

FetchEngine::FetchEngine(const FetchConfig &config)
    : config_(config), l1_(config.l1),
      stream_(config.streamBufferLines), port_(config.l1Fill)
{
    config_.validate();
    if (config_.hasL2 && !config_.perfectL2)
        l2_.emplace(config_.l2);
}

uint64_t
FetchEngine::l2Charge(uint64_t addr, bool count_stall)
{
    if (!l2_)
        return 0;
    ++stats_.l2Accesses;
    if (l2_->access(addr))
        return 0;
    ++stats_.l2Misses;
    const uint64_t penalty =
        config_.l2Fill.fillCycles(config_.l2.lineBytes);
    if (count_stall)
        stats_.stallCyclesL2 += penalty;
    return penalty;
}

bool
FetchEngine::windowLookup(uint64_t vaddr, uint64_t &arrival,
                          uint32_t &index) const
{
    const uint64_t line = config_.l1.lineAddr(vaddr);
    if (line < windowBase_)
        return false;
    const uint64_t idx =
        (line - windowBase_) / config_.l1.lineBytes;
    if (idx >= windowLines_)
        return false;
    const uint64_t burst_offset =
        idx * config_.l1.lineBytes + (vaddr - line);
    arrival = windowStart_ + config_.l1Fill.cyclesToWord(burst_offset);
    index = static_cast<uint32_t>(idx);
    return true;
}

void
FetchEngine::fetch(uint64_t vaddr)
{
    ++stats_.instructions;
    ++cycle_; // Issue cycle of this fetch.

    if (windowActive_) {
        if (cycle_ < windowEnd_) {
            uint64_t arrival;
            uint32_t idx;
            if (windowLookup(vaddr, arrival, idx)) {
                // Served by a bypass buffer while the refill streams.
                if (arrival > cycle_) {
                    stats_.stallCyclesL1 += arrival - cycle_;
                    cycle_ = arrival;
                }
                ++stats_.bypassHits;
                const uint64_t bit = uint64_t{1} << idx;
                if (!(insertedMask_ & bit)) {
                    // cachePrefetchOnlyIfUsed: first use caches it.
                    l1_.insert(config_.l1.lineAddr(vaddr));
                    insertedMask_ |= bit;
                }
                if (!(usedMask_ & bit)) {
                    usedMask_ |= bit;
                    if (idx > 0)
                        ++stats_.prefetchesUsed;
                }
                l1_.access(vaddr);
                return;
            }
            // Outside the refilling lines: the processor may only
            // fetch from the bypass buffers until the refill ends.
            stats_.stallCyclesL1 += windowEnd_ - cycle_;
            cycle_ = windowEnd_;
        }
        windowActive_ = false;
    }

    if (l1_.access(vaddr))
        return;
    ++stats_.l1Misses;
    if (missCapture_)
        missCapture_->append(config_.l1.lineAddr(vaddr));

    if (config_.pipelined)
        missPipelined(vaddr);
    else
        missBlocking(vaddr);
}

void
FetchEngine::missBlocking(uint64_t vaddr)
{
    const uint32_t line_bytes = config_.l1.lineBytes;
    const uint64_t line = config_.l1.lineAddr(vaddr);
    const uint32_t n_prefetch = config_.prefetchLines;

    // The next level is consulted for the demand line and every
    // prefetched line; L2 misses serialize ahead of the L1 fill.
    uint64_t l2_extra = l2Charge(line, true);
    for (uint32_t k = 1; k <= n_prefetch; ++k)
        l2_extra += l2Charge(line + k * line_bytes, true);
    cycle_ += l2_extra;

    const uint64_t burst_bytes =
        static_cast<uint64_t>(n_prefetch + 1) * line_bytes;
    stats_.prefetchesIssued += n_prefetch;

    if (!config_.bypass) {
        // Table 6 model: stall until the miss and all prefetches have
        // been returned to the cache.
        const uint64_t stall = config_.l1Fill.fillCycles(burst_bytes);
        stats_.stallCyclesL1 += stall;
        cycle_ += stall;
        for (uint32_t k = 1; k <= n_prefetch; ++k)
            l1_.insert(line + k * line_bytes);
        return;
    }

    // Table 7 model: bypass buffers hold the arriving lines; the
    // processor resumes as soon as the missing word returns.
    windowActive_ = true;
    windowBase_ = line;
    windowLines_ = n_prefetch + 1;
    windowStart_ = cycle_;
    windowEnd_ = cycle_ + config_.l1Fill.fillCycles(burst_bytes);
    usedMask_ = 1u; // Demand line is used by definition.
    // The demand line was allocated by the access above. Prefetched
    // lines are cached now, or on first use under the
    // pollution-control variant.
    insertedMask_ = 1u;
    if (!config_.cachePrefetchOnlyIfUsed) {
        for (uint32_t k = 1; k <= n_prefetch; ++k) {
            l1_.insert(line + k * line_bytes);
            insertedMask_ |= uint64_t{1} << k;
        }
    }

    const uint64_t resume =
        windowStart_ + config_.l1Fill.cyclesToWord(vaddr - line);
    assert(resume >= cycle_);
    stats_.stallCyclesL1 += resume - cycle_;
    cycle_ = resume;
}

void
FetchEngine::missPipelined(uint64_t vaddr)
{
    const uint32_t line_bytes = config_.l1.lineBytes;
    const uint64_t line = config_.l1.lineAddr(vaddr);

    StreamEntry entry;
    // A hit on an in-flight entry that would arrive later than a
    // fresh demand fetch is treated as a miss: the control logic
    // reissues the line rather than waiting on a queued prefetch
    // (the entry is dropped so the demand result supersedes it).
    const bool found = stream_.lookup(line, entry);
    if (found &&
        entry.arrivalCycle > cycle_ + config_.l1Fill.latencyCycles) {
        stream_.remove(line);
        ++prefetchCancels_;
    }
    else if (found) {
        // Served by the stream buffer; wait if still in flight.
        ++stats_.streamBufferHits;
        ++stats_.prefetchesUsed;
        if (entry.arrivalCycle > cycle_) {
            stats_.stallCyclesL1 += entry.arrivalCycle - cycle_;
            cycle_ = entry.arrivalCycle;
        }
        stream_.remove(line);
        // The line moves into the cache (no penalty, §5.2 model).
        l1_.insert(line);
        // Keep the memory pipeline busy: top up the buffer with the
        // next sequential line.
        if (prefetchValid_ && stream_.capacity() > 0) {
            uint64_t arrival = port_.request(cycle_) +
                config_.l1Fill.fillCycles(line_bytes) -
                config_.l1Fill.latencyCycles;
            arrival += l2Charge(nextPrefetch_, false);
            stream_.insert(nextPrefetch_, arrival);
            nextPrefetch_ += line_bytes;
            ++stats_.prefetchesIssued;
        }
        return;
    }

    // Miss in both: cancel outstanding prefetches (both the buffer
    // entries still in flight and the unissued requests occupying
    // port slots), issue the demand request, then restart the
    // prefetch sequence behind it.
    prefetchCancels_ += stream_.cancelInFlight(cycle_);
    port_.cancelPending(cycle_);

    uint64_t issued;
    uint64_t arrival = port_.request(cycle_, &issued) +
        config_.l1Fill.fillCycles(line_bytes) -
        config_.l1Fill.latencyCycles;
    const uint64_t l2_extra = l2Charge(line, false);
    arrival += l2_extra;
    if (arrival > cycle_) {
        const uint64_t wait = arrival - cycle_;
        const uint64_t l2_part = l2_extra < wait ? l2_extra : wait;
        stats_.stallCyclesL2 += l2_part;
        stats_.stallCyclesL1 += wait - l2_part;
        cycle_ = arrival;
    }
    // Demand line was allocated into L1 by the access.

    const uint32_t n = config_.streamBufferLines;
    uint64_t hint = issued + 1;
    for (uint32_t k = 1; k <= n; ++k) {
        const uint64_t pf_line = line + k * line_bytes;
        uint64_t pf_arrival = port_.request(hint) +
            config_.l1Fill.fillCycles(line_bytes) -
            config_.l1Fill.latencyCycles;
        pf_arrival += l2Charge(pf_line, false);
        stream_.insert(pf_line, pf_arrival);
        ++stats_.prefetchesIssued;
        hint = 0; // Subsequent requests self-serialize on the port.
    }
    nextPrefetch_ = line + (static_cast<uint64_t>(n) + 1) * line_bytes;
    prefetchValid_ = n > 0;
}

FetchStats
FetchEngine::stats() const
{
    FetchStats s = stats_;
    s.cycles = cycle_;
    return s;
}

void
FetchEngine::dataTouch(uint64_t vaddr)
{
    if (!config_.l2Unified || !l2_)
        return;
    ++stats_.l2DataAccesses;
    if (!l2_->access(vaddr))
        ++stats_.l2DataMisses;
}

FetchStats
FetchEngine::run(TraceStream &stream, uint64_t max_instructions)
{
    TraceRecord rec;
    uint64_t done = 0;
    while (done < max_instructions && stream.next(rec)) {
        if (!rec.isInstr()) {
            dataTouch(rec.vaddr);
            continue;
        }
        fetch(rec.vaddr);
        ++done;
    }
    return stats();
}

void
FetchEngine::reset()
{
    l1_.invalidateAll();
    l1_.resetStats();
    if (l2_) {
        l2_->invalidateAll();
        l2_->resetStats();
    }
    stream_.clear();
    port_.reset();
    cycle_ = 0;
    stats_ = FetchStats{};
    prefetchCancels_ = 0;
    batchedRuns_ = 0;
    batchFallbacks_ = 0;
    windowActive_ = false;
    prefetchValid_ = false;
}

void
FetchEngine::publishCounters(obs::Registry &registry) const
{
    l1_.publishCounters(registry, "l1");
    if (l2_)
        l2_->publishCounters(registry, "l2");
    stream_.publishCounters(registry, "fetch");

    registry.add("fetch.engine.instructions", stats_.instructions);
    registry.add("fetch.engine.cycles", cycle_);
    registry.add("fetch.engine.l1_misses", stats_.l1Misses);
    registry.add("fetch.engine.prefetches_issued",
                 stats_.prefetchesIssued);
    registry.add("fetch.engine.prefetches_used",
                 stats_.prefetchesUsed);
    registry.add("fetch.engine.prefetches_cancelled",
                 prefetchCancels_);
    registry.add("fetch.engine.bypass_window_hits", stats_.bypassHits);
    registry.add("fetch.engine.stream_buffer_hits",
                 stats_.streamBufferHits);
    registry.add("fetch.engine.batched_runs", batchedRuns_);
    registry.add("fetch.engine.batch_fallbacks", batchFallbacks_);
}

} // namespace ibs
