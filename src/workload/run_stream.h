/**
 * @file
 * RunStream: zero-materialization streaming run generation, and the
 * re-cut of a run trace to another line size.
 *
 * Replaying a workload through the batched fetch path
 * (FetchEngine::fetchRun) needs FetchRun records, not individual
 * addresses. RunStream pulls whole sequential blocks straight out of
 * the WorkloadModel (which knows its next `runLeft` fetches are
 * +4-contiguous, so a block costs O(1), not O(instructions)) and
 * slices them into line-bounded runs on the fly. No flat address
 * vector (8 bytes per instruction) is ever materialized, yet the run
 * sequence is bit-identical to compressing one: the tests' oracle,
 * compressRuns in tests/flat_trace.h, applies the same cut rule
 * (break on any discontinuity or line-boundary crossing) to the flat
 * trace, and tests/stream_gen_diff_test.cc compares the two
 * run-for-run.
 *
 * Each run also carries the ASID of the component that issued it
 * (WorkloadModel::currentAsid), and a run is never extended across
 * an ASID change. That extra cut only fires when a component switch
 * happens to continue at the next sequential address, which the
 * shipped workloads never do (the components' text segments are
 * disjoint), so their runs still equal compressRuns' run-for-run.
 * With line_bytes == PAGE_SIZE the output is the page-bounded,
 * ASID-tagged trace of the address-translating drivers
 * (sim/tapeworm.h).
 *
 * The cut rule sees only the instruction sequence, never the block
 * boundaries, so a run trace at one line size determines the trace
 * at every other: RunStream can also take its blocks from an existing
 * RunTrace, one run per block, and cutRunTrace re-cuts a trace that
 * way without running the model again. SuiteTraces generates each
 * workload once and cuts every further line size from the coarsest
 * trace it already holds (sim/runner.h).
 *
 * Only instruction-only workloads have run traces. With data
 * references enabled every instruction draws from the scheduler RNG,
 * so blocks cannot skip records; RunStream refuses such a workload,
 * and the drivers that read data references (the DECstation, TLB and
 * unified-L2 binaries) replay WorkloadModel::next record by record.
 */

#ifndef IBS_WORKLOAD_RUN_STREAM_H
#define IBS_WORKLOAD_RUN_STREAM_H

#include <cstdint>

#include "trace/run_trace.h"
#include "workload/model.h"

namespace ibs {

/** Pull-based generator of line-bounded FetchRuns from a workload
 *  model or from another run trace. */
class RunStream
{
  public:
    /**
     * @param model generator to drain (not owned; reads records or
     *        blocks from its current position)
     * @param line_bytes cache line size the runs are cut for; must be
     *        a power of two >= 4
     * @param max_instructions stop after this many instructions
     * @throws std::invalid_argument on an invalid line size, or when
     *         the model's workload has data references enabled
     */
    RunStream(WorkloadModel &model, uint32_t line_bytes,
              uint64_t max_instructions);

    /**
     * @param source run trace to re-cut (not owned; must outlive the
     *        stream): its runs are the blocks, so the stream emits
     *        the trace of the same instructions at `line_bytes`
     * @param line_bytes as above
     * @throws std::invalid_argument on an invalid line size
     */
    RunStream(const RunTrace &source, uint32_t line_bytes);

    /**
     * Produce the next run.
     *
     * @retval false the instruction budget or the source trace is
     *         exhausted; no run was written
     */
    bool next(FetchRun &run);

    /** Instructions emitted in runs so far. */
    uint64_t instructions() const { return emitted_; }

  private:
    /** Pull the next contiguous block from the model or the source
     *  trace; false at end-of-budget or end of the source. */
    bool refill();

    WorkloadModel *model_ = nullptr; ///< Block source, or null when
                                     ///< re-cutting a source trace.
    const FetchRun *sourceNext_ = nullptr; ///< Next source run.
    const FetchRun *sourceEnd_ = nullptr;
    uint32_t lineBytes_;
    uint64_t lineMask_; ///< ~(lineBytes - 1).
    uint64_t cap_ = UINT64_MAX;

    uint64_t pulled_ = 0;  ///< Instructions drawn from the source.
    uint64_t emitted_ = 0; ///< Instructions handed out in runs.

    // Contiguous block not yet sliced into runs.
    uint64_t blockStart_ = 0;
    uint64_t blockLen_ = 0;
    Asid blockAsid_ = KERNEL_ASID;
    // Run being extended (possibly across blocks: a sequential
    // fall-through in the walker continues the same line).
    uint64_t pendStart_ = 0;
    uint32_t pendCount_ = 0;
    Asid pendAsid_ = KERNEL_ASID;
};

/**
 * Drain a RunStream over `model` into a RunTrace; peak memory is the
 * compressed trace alone.
 *
 * @throws std::invalid_argument as RunStream's constructor
 */
RunTrace generateRunTrace(WorkloadModel &model, uint32_t line_bytes,
                          uint64_t max_instructions);

/**
 * The trace of `source`'s instructions at `line_bytes`: run-for-run
 * what generateRunTrace at `line_bytes` gives for the model and
 * budget `source` was generated from, whatever `source.lineBytes`
 * is. The runs are counted first and then filled, so the result
 * holds no spare capacity.
 *
 * @throws std::invalid_argument on an invalid line size
 */
RunTrace cutRunTrace(const RunTrace &source, uint32_t line_bytes);

} // namespace ibs

#endif // IBS_WORKLOAD_RUN_STREAM_H
