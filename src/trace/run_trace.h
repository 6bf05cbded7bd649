/**
 * @file
 * Run-length compressed instruction traces.
 *
 * The workload model emits geometric *sequential runs* of 4-byte
 * instructions (DESIGN §2), so with 16-64B cache lines most
 * consecutive fetches land in the line the previous fetch just
 * touched. A RunTrace holds FetchRun records — one record per maximal
 * stretch of consecutive +4 fetches that stays inside a single cache
 * line — so replay loops can retire a whole line-resident run with
 * one tag probe (FetchEngine::fetchRun) instead of one probe per
 * instruction.
 *
 * The encoding depends only on the line size, not on any other cache
 * parameter, which is what lets SuiteTraces share one RunTrace per
 * (workload, lineBytes) across every cell of a sweep grid. SuiteTraces
 * builds those straight from the workload model
 * (workload/run_stream.h); the tests' reference encoder over a flat
 * address vector, compressRuns in tests/flat_trace.h, cuts the same
 * runs.
 *
 * Cut at a 4-KB "line" (PAGE_SIZE), the same encoding is the page
 * trace: maximal sequential runs that never cross a page or an
 * address-space switch, each tagged with its ASID. The drivers that
 * map virtual to physical pages (sim/tapeworm.h, sim/cml_sim.h)
 * replay it, translating once per run where the mapping is fixed.
 */

#ifndef IBS_TRACE_RUN_TRACE_H
#define IBS_TRACE_RUN_TRACE_H

#include <cstdint>
#include <vector>

#include "trace/record.h"

namespace ibs {

/** Instruction width of the modelled ISA (MIPS, DESIGN §2). */
inline constexpr uint32_t kInstrBytes = 4;

/**
 * One maximal sequential fetch run: `count` instructions at
 * startVaddr, startVaddr+4, ..., startVaddr+4*(count-1), all inside
 * one cache line of the RunTrace's lineBytes and all issued by
 * address space `asid`.
 */
struct FetchRun
{
    uint64_t startVaddr = 0;
    uint32_t count = 0;
    /** Issuing address space. The stream generator (RunStream)
     *  never lets a run span an ASID change; the tests' compressRuns
     *  has no ASIDs and leaves it KERNEL_ASID. */
    Asid asid = KERNEL_ASID;
};

// The ASID lives in what was padding: a run stays 16 bytes, so
// RunTrace::bytes() and every memo budget built on it are unchanged.
static_assert(sizeof(FetchRun) == 16);

/** A whole instruction trace as line-bounded sequential runs. */
struct RunTrace
{
    uint32_t lineBytes = 0;    ///< Line size the runs were cut for.
    uint64_t instructions = 0; ///< Sum of all run counts.
    std::vector<FetchRun> runs;

    /** Mean instructions per run (compression ratio; 0 if empty). */
    double
    instructionsPerRun() const
    {
        return runs.empty()
            ? 0.0
            : static_cast<double>(instructions) /
              static_cast<double>(runs.size());
    }

    /** Retained bytes of the run records (what a memo holding this
     *  trace charges against a byte budget; the flat equivalent is
     *  instructions * sizeof(uint64_t)). */
    uint64_t
    bytes() const
    {
        return static_cast<uint64_t>(runs.size()) * sizeof(FetchRun);
    }
};

} // namespace ibs

#endif // IBS_TRACE_RUN_TRACE_H
