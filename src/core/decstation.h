/**
 * @file
 * DECstation 3100 memory-system model.
 *
 * Tables 1 and 3 of the paper were measured by a logic analyzer on
 * the CPU pins of a DECstation 3100: a 16.6-MHz R2000 with split,
 * direct-mapped, 64-KB off-chip I- and D-caches with 4-byte lines and
 * a 6-cycle miss penalty, a 64-entry fully-associative TLB mapping
 * 4-KB pages, and a write-through D-cache in front of a small write
 * buffer. This model reproduces that measurement arithmetic: it
 * consumes a full (instruction + data) trace and decomposes memory
 * CPI into the same four components the paper reports —
 * CPIinstr, CPIdata, CPItlb and CPIwrite.
 */

#ifndef IBS_CORE_DECSTATION_H
#define IBS_CORE_DECSTATION_H

#include <cstdint>
#include <deque>

#include "cache/cache.h"
#include "tlb/tlb.h"
#include "trace/stream.h"

namespace ibs {

/** Measured CPI components (one Table 1 / Table 3 row). */
struct DecstationStats
{
    static constexpr uint32_t kCacheMissPenalty = 6; ///< Per I/D miss.
    static constexpr uint32_t kTlbMissPenalty = 16;  ///< Software refill.

    uint64_t instructions = 0;
    uint64_t userInstructions = 0; ///< ASID == 1 (the user task).
    uint64_t icacheMisses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t tlbMisses = 0;
    uint64_t writeStallCycles = 0;

    double
    cpiInstr() const
    {
        return ratio(icacheMisses) * kCacheMissPenalty;
    }

    double
    cpiData() const
    {
        return ratio(dcacheMisses) * kCacheMissPenalty;
    }

    double
    cpiTlb() const
    {
        return ratio(tlbMisses) * kTlbMissPenalty;
    }

    double cpiWrite() const { return ratio(writeStallCycles); }

    /** Total memory CPI — the paper's "Total Memory CPI" column. */
    double
    totalMemoryCpi() const
    {
        return cpiInstr() + cpiData() + cpiTlb() + cpiWrite();
    }

    /** Fraction of execution time in the user task. */
    double
    userFraction() const
    {
        return instructions
            ? static_cast<double>(userInstructions) /
              static_cast<double>(instructions)
            : 0.0;
    }

  private:
    double
    ratio(uint64_t n) const
    {
        return instructions
            ? static_cast<double>(n) / static_cast<double>(instructions)
            : 0.0;
    }
};

/** Trace-driven model of the measured machine. Its parameters are
 *  the DECstation 3100's, fixed; DecstationStats holds the two miss
 *  penalties. */
class DecstationModel
{
  public:
    /** The I-cache and the D-cache: each 64 KB, direct-mapped, 4-B
     *  lines. */
    static constexpr CacheConfig kCache{64 * 1024, 1, 4};
    /** The R2000 TLB: 64 entries, fully associative; kseg0
     *  references bypass it. */
    static constexpr TlbConfig kTlb{64, 64};
    static constexpr uint32_t kWriteBufferDepth = 4; ///< Entries.
    /** Memory cycles per write (raw write + bus contention). */
    static constexpr uint32_t kWriteDrainCycles = 10;

    DecstationModel() : icache_(kCache), dcache_(kCache), tlb_(kTlb) {}

    /**
     * Consume a full trace (instructions and data).
     *
     * @param stream record source (user + OS references)
     * @param max_instructions stop after this many instructions
     */
    DecstationStats run(TraceStream &stream,
                        uint64_t max_instructions);

    void reset();

  private:
    void handleWrite();

    Cache icache_;
    Cache dcache_;
    Tlb tlb_;
    DecstationStats stats_;
    uint64_t cycle_ = 0;
    std::deque<uint64_t> writeBuffer_; ///< Drain-completion cycles.
};

} // namespace ibs

#endif // IBS_CORE_DECSTATION_H
