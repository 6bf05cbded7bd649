/**
 * @file
 * Results of a fetch simulation, in the paper's CPI model (§3):
 *
 *   CPI = CPIinstr + CPIother
 *   CPIinstr = MPI * CPM
 *
 * The engine accounts stall cycles separately for the L1 fill path
 * (what the paper calls the L1 contribution, measured against a
 * perfect L2) and for L2 misses (the L2 contribution, measured
 * against main memory), so multi-level results decompose exactly the
 * way Figures 3, 4 and 7 present them.
 */

#ifndef IBS_CORE_FETCH_STATS_H
#define IBS_CORE_FETCH_STATS_H

#include <cstdint>

namespace ibs {

struct FetchConfig;

/** Counters and derived CPI metrics from one FetchEngine run. */
struct FetchStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;          ///< instructions + all stalls.
    uint64_t stallCyclesL1 = 0;   ///< Waiting on L1 fills (L2 hits).
    uint64_t stallCyclesL2 = 0;   ///< Additional cycles from L2 misses.

    uint64_t l1Misses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t l2DataAccesses = 0; ///< Unified-L2 data touches.
    uint64_t l2DataMisses = 0;

    uint64_t prefetchesIssued = 0; ///< Lines prefetched (any scheme).
    uint64_t prefetchesUsed = 0;   ///< Prefetched lines later fetched.
    uint64_t streamBufferHits = 0; ///< L1 misses served by the buffer.
    uint64_t bypassHits = 0;       ///< Fetches served by bypass bufs.

    /** L1 contribution to CPIinstr. */
    double
    l1Cpi() const
    {
        return instructions
            ? static_cast<double>(stallCyclesL1) /
              static_cast<double>(instructions)
            : 0.0;
    }

    /** L2 contribution to CPIinstr. */
    double
    l2Cpi() const
    {
        return instructions
            ? static_cast<double>(stallCyclesL2) /
              static_cast<double>(instructions)
            : 0.0;
    }

    /** Total CPIinstr (the paper's headline metric). */
    double cpiInstr() const { return l1Cpi() + l2Cpi(); }

    /** L1 misses per 100 instructions (Table 4's MPI convention). */
    double
    mpi100() const
    {
        return instructions
            ? 100.0 * static_cast<double>(l1Misses) /
              static_cast<double>(instructions)
            : 0.0;
    }

    /** L2 local miss ratio. */
    double
    l2MissRatio() const
    {
        return l2Accesses
            ? static_cast<double>(l2Misses) /
              static_cast<double>(l2Accesses)
            : 0.0;
    }

    /**
     * Check the accounting identities that every cell simulated
     * under `config` satisfies, whichever path produced it:
     *
     *  - cycles == instructions + stallCyclesL1 + stallCyclesL2;
     *  - l2Misses <= l2Accesses, l2DataMisses <= l2DataAccesses and
     *    prefetchesUsed <= prefetchesIssued;
     *  - bypassHits == 0 unless bypass, streamBufferHits == 0 unless
     *    pipelined;
     *  - no L2 accesses without a real L2 (!hasL2 or perfectL2);
     *  - l2Accesses == l1Misses * (1 + prefetchLines) for every
     *    non-pipelined config with a real L2, bypass included;
     *  - prefetchesIssued == l1Misses * prefetchLines for every
     *    non-pipelined config;
     *  - stallCyclesL1 == l1Misses * l1Fill.fillCycles((1 +
     *    prefetchLines) * l1.lineBytes) for every blocking fill
     *    (neither bypass nor pipelined) — the premises
     *    sim/collapse.h derives such cells from.
     *
     * @throws std::logic_error naming the first broken identity and
     *         config.toString()
     */
    void check(const FetchConfig &config) const;

    /** Accumulate another run (suite averaging). */
    void
    merge(const FetchStats &o)
    {
        instructions += o.instructions;
        cycles += o.cycles;
        stallCyclesL1 += o.stallCyclesL1;
        stallCyclesL2 += o.stallCyclesL2;
        l1Misses += o.l1Misses;
        l2Accesses += o.l2Accesses;
        l2Misses += o.l2Misses;
        l2DataAccesses += o.l2DataAccesses;
        l2DataMisses += o.l2DataMisses;
        prefetchesIssued += o.prefetchesIssued;
        prefetchesUsed += o.prefetchesUsed;
        streamBufferHits += o.streamBufferHits;
        bypassHits += o.bypassHits;
    }
};

} // namespace ibs

#endif // IBS_CORE_FETCH_STATS_H
