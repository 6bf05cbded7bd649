/**
 * @file
 * Execution walkers: the random processes that generate reference
 * streams over a CodeLayout.
 *
 * CodeWalker models a single thread of control: sequential runs
 * (basic blocks) punctuated by backward branches (loops), short
 * forward skips (taken branches), and procedure transfers (calls and
 * returns over a bounded stack, with call targets drawn Zipf-by-
 * popularity). DataWalker models the matching load/store stream
 * (stack window + Zipf heap).
 *
 * These two processes, with the per-component parameters of
 * workload/params.h, are the entire substitute for the lost IBS
 * traces; tests/calibration_test.cc pins their aggregate statistics
 * to the paper's published numbers.
 */

#ifndef IBS_WORKLOAD_WALKER_H
#define IBS_WORKLOAD_WALKER_H

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "workload/layout.h"
#include "workload/params.h"

namespace ibs {

/** Instruction-stream walker for one component. */
class CodeWalker
{
  public:
    /**
     * @param layout placed procedures (must outlive the walker)
     * @param params the same component parameters used for the layout
     * @param rng walker randomness (independent of layout randomness)
     */
    CodeWalker(const CodeLayout &layout, const ComponentParams &params,
               Rng rng);

    /** Produce the next instruction-fetch virtual address. */
    uint64_t next();

    /**
     * Emit a whole sequential block in O(1): the next
     * min(max_count, instructions until the current run or procedure
     * ends) fetches, which are +4-contiguous starting at `start`.
     * State afterwards — pc, run/visit budgets, RNG draw sequence,
     * generated() — is exactly what `count` next() calls would have
     * left, so interleaving next() and nextBlock() yields the same
     * address stream either way (the streaming generator's
     * bit-identity rests on this; differential-tested in
     * tests/stream_gen_diff_test.cc).
     *
     * @param max_count cap on the block length; must be >= 1
     * @param start [out] first instruction address of the block
     * @return block length in instructions (>= 1)
     */
    uint64_t nextBlock(uint64_t max_count, uint64_t &start);

    /** Instructions generated so far. */
    uint64_t generated() const { return generated_; }

  private:
    struct Frame
    {
        uint32_t procIndex;
        uint64_t returnPc;
    };

    /** Pick a new run length in instructions (>= 1). */
    void newRun();

    /** End-of-run branch decision. */
    void branch();

    /** Transfer control: return to caller or call a new procedure. */
    void transfer();

    /** Enter procedure `index` at its first instruction. */
    void enter(uint32_t index);

    const CodeLayout &layout_;
    ComponentParams params_;
    Rng rng_;
    ZipfSampler zipf_;
    // Geometric parts of the visit, run, loop and skip lengths (in
    // instructions), one per mean in params_, drawn at every decision.
    GeometricSampler visitUnits_;
    GeometricSampler runUnits_;
    GeometricSampler loopUnits_;
    GeometricSampler skipUnits_;

    uint32_t procIndex_ = 0;
    uint64_t pc_ = 0;
    uint64_t procStart_ = 0;
    uint64_t procEnd_ = 0;
    int64_t runLeft_ = 0;   ///< Instructions left in the current run.
    int64_t visitLeft_ = 0; ///< Instructions left in this visit.
    std::vector<Frame> stack_;
    uint64_t generated_ = 0;

    static constexpr size_t MAX_DEPTH = 64;
    static constexpr double P_RETURN = 0.4;
};

/** Data-reference walker for one component. */
class DataWalker
{
  public:
    /**
     * @param params the workload's data model
     * @param base_offset added to all addresses (per-component segment)
     * @param rng data randomness
     */
    DataWalker(const DataParams &params, uint64_t base_offset, Rng rng);

    /** Produce the next data virtual address (4-byte aligned). */
    uint64_t next();

  private:
    DataParams params_;
    uint64_t base_;
    Rng rng_;
    uint64_t stackWords_;          ///< Stack window in words (>= 1).
    GeometricSampler stackDepth_;  ///< Depth from the top, in words.
    ZipfSampler heapZipf_;
    std::vector<uint32_t> blockShuffle_; ///< rank -> heap block.
};

} // namespace ibs

#endif // IBS_WORKLOAD_WALKER_H
