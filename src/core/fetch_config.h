/**
 * @file
 * Instruction-fetch system configuration (§5 of the paper).
 *
 * A FetchConfig describes the entire fetch path: the L1 I-cache, the
 * optional on-chip L2, the timing of both fill interfaces, and the
 * L1-L2 interface optimizations the paper evaluates — sequential
 * prefetch-on-miss (Table 6), bypass buffers (Table 7), and a
 * pipelined L2 with a stream buffer (Table 8).
 *
 * The two baseline configurations of Table 5 are provided as factory
 * functions, and `withOnChipL2` performs the §5.1 transformation of a
 * baseline into a two-level on-chip hierarchy.
 */

#ifndef IBS_CORE_FETCH_CONFIG_H
#define IBS_CORE_FETCH_CONFIG_H

#include <cstdint>
#include <string>

#include "cache/config.h"
#include "mem/timing.h"

namespace ibs {

/** Full description of the instruction-fetch hardware under study. */
struct FetchConfig
{
    /** L1 I-cache (cycle-time constrained: small, low-assoc). */
    CacheConfig l1{8 * 1024, 1, 32};

    /** Timing of the interface that fills the L1 (from L2 when hasL2,
     *  else from the baseline backing store). */
    MemoryTiming l1Fill{30, 4};

    /** Whether an on-chip L2 I-cache is present. */
    bool hasL2 = false;

    /** On-chip L2 geometry (when hasL2). */
    CacheConfig l2{64 * 1024, 1, 64};

    /** Timing of the interface that fills the L2 (the baseline
     *  backing store: main memory or ideal off-chip cache). */
    MemoryTiming l2Fill{30, 4};

    /**
     * Treat the next level below L1 as always hitting. Used for the
     * paper's L1-contribution methodology ("simulating an L1 cache
     * backed by a perfect L2") and for the Table 6-8 interface
     * studies, which report L1 CPIinstr only.
     */
    bool perfectL2 = false;

    /** Sequential prefetch-on-miss depth (Table 6); 0 disables. */
    uint32_t prefetchLines = 0;

    /** Bypass buffers on the refill path (Table 7). */
    bool bypass = false;

    /**
     * Pollution-control variant (§5.2): cache prefetched lines only
     * if the processor used them while they sat in the bypass
     * buffers. The paper found this *hurts* small configurations;
     * bench/ablation_subblock exercises it.
     */
    bool cachePrefetchOnlyIfUsed = false;

    /** Pipelined L2 interface with a stream buffer (Table 8). */
    bool pipelined = false;

    /** Stream buffer capacity in lines (with pipelined). */
    uint32_t streamBufferLines = 0;

    /**
     * Share the L2 between instructions and data (§5: "because an L2
     * cache is likely to be shared by both instructions and data,
     * our results represent a lower bound relative to an actual
     * system"). When set, FetchEngine::run feeds data records into
     * the L2 so they compete for its capacity; data-side *stalls*
     * are not charged (they belong to CPIdata, not CPIinstr).
     */
    bool l2Unified = false;

    /** Human-readable summary. */
    std::string toString() const;

    /** Sanity checks; throws std::invalid_argument. */
    void validate() const;
};

/**
 * Table 5 "Economy" baseline: 8-KB direct-mapped L1 backed by main
 * memory (30-cycle latency, 4 bytes/cycle).
 */
FetchConfig economyBaseline();

/**
 * Table 5 "High Performance" baseline: 8-KB direct-mapped L1 backed
 * by an ideal off-chip cache (12-cycle latency, 8 bytes/cycle).
 */
FetchConfig highPerfBaseline();

/**
 * §5.1 transformation: insert an on-chip L2 between the L1 and the
 * baseline's backing store. The L1 now fills at 6 cycles /
 * 16 bytes-per-cycle; the old backing-store timing becomes the L2
 * fill interface.
 */
FetchConfig withOnChipL2(FetchConfig base, uint64_t l2_size,
                         uint32_t l2_line, uint32_t l2_assoc);

/** Set the L1-L2 transfer bandwidth (Figure 6 sweep). */
FetchConfig withL1Bandwidth(FetchConfig config, uint32_t bytes_per_cycle);

} // namespace ibs

#endif // IBS_CORE_FETCH_CONFIG_H
