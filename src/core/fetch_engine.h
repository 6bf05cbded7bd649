/**
 * @file
 * FetchEngine: the instruction-fetch timing simulator.
 *
 * Models a single-issue processor fetching one instruction per cycle
 * and charges stall cycles per the configured L1-L2 interface policy:
 *
 *  - blocking fill (baselines, Figures 3/4/6): the processor stalls
 *    until the whole line — and, with prefetch-on-miss, the whole
 *    prefetch burst — has been written into the cache (Table 6
 *    execution model);
 *  - bypass buffers (Table 7): the processor resumes as soon as the
 *    missing word arrives and may fetch from the arriving lines while
 *    the refill completes, but fetches outside the refilling lines
 *    wait for the refill to finish;
 *  - pipelined L2 + stream buffer (Table 8): the L2 accepts one
 *    request per cycle; prefetched lines park in the stream buffer
 *    with their arrival cycles and move to the I-cache when used;
 *    a miss in both structures cancels outstanding prefetches and
 *    restarts the sequence after the new miss.
 *
 * Stalls are split into an L1 component (fills priced as if the next
 * level always hit) and an L2 component (added cycles when it did
 * not), matching the paper's decomposition methodology (§3).
 */

#ifndef IBS_CORE_FETCH_ENGINE_H
#define IBS_CORE_FETCH_ENGINE_H

#include <cstdint>
#include <optional>

#include "cache/cache.h"
#include "cache/stream_buffer.h"
#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "mem/timing.h"
#include "trace/miss_trace.h"
#include "trace/run_trace.h"
#include "trace/stream.h"

namespace ibs {

/** Cycle-accounting instruction-fetch simulator. */
class FetchEngine
{
  public:
    /** @param config validated fetch-path description. */
    explicit FetchEngine(const FetchConfig &config);

    /** Simulate one instruction fetch at virtual address `vaddr`. */
    void fetch(uint64_t vaddr);

    /**
     * Simulate a whole sequential fetch run (trace/run_trace.h). The
     * run's instructions are +4-sequential within one L1 line by
     * construction, so when no bypass/refill window is active and
     * the line already sits in L1 the entire run retires in O(1):
     * one tag probe, `instructions += count`, `cycle += count`, and
     * the L1 stamp clock advanced by `count` (Cache::accessRun), all
     * bit-identical to `count` scalar fetch() calls. Every other
     * case — active bypass window, L1 miss, a run cut for a
     * different line size — falls back to the scalar loop, so
     * simulated statistics never depend on which path ran.
     *
     * The run must have been encoded with a line size equal to (or
     * dividing) the L1's: a run that could straddle an L1 line is
     * detected and handled by the fallback, at scalar speed.
     *
     * Defined inline below: one call per compressed run is the whole
     * per-run cost of the batched replay loop, so the hit path (a
     * window check, a line-straddle compare, one inlined tag probe)
     * must not also pay a cross-TU call.
     */
    void fetchRun(const FetchRun &run);

    /**
     * Install a miss-stream capture sink (nullptr detaches). While
     * attached, every L1 miss appends its line address to `sink`, in
     * miss order — the L2 reference stream of this run
     * (trace/miss_trace.h). The check sits on the miss path only:
     * the scalar hit path and the batched fetchRun fast path (which
     * retires hits exclusively) are untouched when capture is off, so
     * the hook costs nothing in ordinary sweeps. Used by
     * SuiteTraces::missStream to run a shared L1 front end once. The
     * sink must outlive the capture run; reset() does not detach it.
     */
    void setMissCapture(MissTrace *sink) { missCapture_ = sink; }

    /** fetchRun() path counters (observability; see publishCounters).
     *  sim/collapse.h reads them to synthesize the registry counters
     *  a derived sweep cell would have published. */
    uint64_t batchedRuns() const { return batchedRuns_; }
    uint64_t batchFallbacks() const { return batchFallbacks_; }

    /** The L1 cache (read-only; collapse capture reads its hit/miss
     *  counters for the same counter synthesis). */
    const Cache &l1Cache() const { return l1_; }

    /**
     * Touch the L2 with a data reference (unified-L2 mode): the data
     * stream competes for L2 capacity but charges no fetch stalls.
     * No-op unless the configuration has a real, unified L2.
     */
    void dataTouch(uint64_t vaddr);

    /**
     * Drive the engine from a trace, consuming only instruction
     * records.
     *
     * @param stream record source
     * @param max_instructions stop after this many fetches
     * @return statistics of this run
     */
    FetchStats run(TraceStream &stream, uint64_t max_instructions);

    /** Statistics so far. */
    FetchStats stats() const;

    /** Clear caches, buffers and statistics. */
    void reset();

    const FetchConfig &config() const { return config_; }

    /**
     * Publish engine and component counters to the observability
     * registry: "fetch.engine.<event>" plus the L1/L2 caches
     * ("cache.l1.*", "cache.l2.*") and the stream buffer
     * ("stream_buffer.fetch.*"). Caller gates on Registry::enabled().
     */
    void publishCounters(obs::Registry &registry) const;

  private:
    /** Blocking and bypass miss handling. */
    void missBlocking(uint64_t vaddr);

    /** Pipelined + stream-buffer miss handling. */
    void missPipelined(uint64_t vaddr);

    /**
     * Charge an L2 lookup for `addr`.
     *
     * @param count_stall accumulate the fill penalty into the L2
     *        stall component (demand path) as well as returning it
     * @return extra cycles if the L2 missed, else 0
     */
    uint64_t l2Charge(uint64_t addr, bool count_stall);

    /** True if the bypass window covers `addr`; yields arrival. */
    bool windowLookup(uint64_t vaddr, uint64_t &arrival,
                      uint32_t &index) const;

    FetchConfig config_;
    Cache l1_;
    // Inline optional rather than a heap indirection: l2Charge sits
    // on the per-reference hot path, and the L2's tag probe should
    // not start with a pointer chase to a separate allocation.
    std::optional<Cache> l2_;
    StreamBuffer stream_;
    PipelinedPort port_;

    uint64_t cycle_ = 0;
    FetchStats stats_;
    /** Miss-stream capture sink; nullptr (the default) disables. */
    MissTrace *missCapture_ = nullptr;
    /** Prefetches dropped before use: in-flight cancellations on a
     *  double miss plus queued entries superseded by a demand fetch.
     *  Observability-only — not part of FetchStats or any table. */
    uint64_t prefetchCancels_ = 0;
    /** fetchRun() path selection. Observability-only: the simulated
     *  statistics are identical whichever path retires a run. */
    uint64_t batchedRuns_ = 0;   ///< Runs retired by the O(1) path.
    uint64_t batchFallbacks_ = 0; ///< Runs replayed per-instruction.

    // Bypass refill window state.
    bool windowActive_ = false;
    uint64_t windowBase_ = 0;  ///< Line address of the demand line.
    uint32_t windowLines_ = 0; ///< Demand + prefetched lines.
    uint64_t windowStart_ = 0; ///< Cycle the fill was requested.
    uint64_t windowEnd_ = 0;   ///< Cycle the last byte arrives.
    // One bit per refilling line; windowLines_ <= 64 is enforced by
    // FetchConfig::validate, so a 64-bit mask always suffices.
    uint64_t insertedMask_ = 0;
    uint64_t usedMask_ = 0;

    // Stream-buffer prefetcher state.
    uint64_t nextPrefetch_ = 0;
    bool prefetchValid_ = false;
};

inline void
FetchEngine::fetchRun(const FetchRun &run)
{
    if (run.count == 0)
        return;
    // Fast path: no bypass/refill window in progress, the run stays
    // inside one L1 line (guaranteed when it was encoded at the L1's
    // line size; checked so coarser encodings degrade to the scalar
    // loop instead of mis-simulating), and that line is resident.
    // accessRun leaves the cache counters and LRU stamp clock exactly
    // as `count` scalar probes would, and mutates nothing on a miss.
    const uint64_t last =
        run.startVaddr + uint64_t{run.count - 1} * kInstrBytes;
    if (!windowActive_ &&
        config_.l1.lineAddr(run.startVaddr) == config_.l1.lineAddr(last) &&
        l1_.accessRun(run.startVaddr, run.count)) {
        stats_.instructions += run.count;
        cycle_ += run.count; // One issue cycle per instruction.
        ++batchedRuns_;
        return;
    }
    ++batchFallbacks_;
    uint64_t vaddr = run.startVaddr;
    for (uint32_t k = 0; k < run.count; ++k, vaddr += kInstrBytes)
        fetch(vaddr);
}

} // namespace ibs

#endif // IBS_CORE_FETCH_ENGINE_H
