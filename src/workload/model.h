/**
 * @file
 * WorkloadModel: a complete multi-component workload as a TraceStream.
 *
 * The model schedules its components (user task, kernel, servers) with
 * geometric dwell times whose stationary distribution reproduces the
 * execution-time breakdown of Table 4, and interleaves data references
 * when enabled. The produced stream is what the original Monster
 * traces were: the merged user+OS reference stream of the whole
 * system.
 */

#ifndef IBS_WORKLOAD_MODEL_H
#define IBS_WORKLOAD_MODEL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/rng.h"
#include "trace/stream.h"
#include "workload/layout.h"
#include "workload/params.h"
#include "workload/walker.h"

namespace ibs {

/** Generates the merged reference stream of a WorkloadSpec. */
class WorkloadModel : public TraceStream
{
  public:
    /** @param spec workload description (copied); spec.seed seeds
     *         every random stream of the model */
    explicit WorkloadModel(const WorkloadSpec &spec);

    /** The stream never ends; callers bound it (e.g. the
     *  instruction budget of FetchEngine::run). */
    bool next(TraceRecord &rec) override;

    /**
     * Emit a whole sequential instruction block in O(1) instead of
     * one record per call: the next min(max_count, remaining dwell,
     * walker run) fetches, +4-contiguous from `start`. Scheduler
     * state (dwell budget, RNG draws, instructions(), switch counts)
     * afterwards matches `count` next() calls exactly, so a stream
     * assembled from blocks is bit-identical to one assembled from
     * records — the foundation of the zero-materialization run
     * generator (workload/run_stream.h).
     *
     * Only valid for instruction-only workloads: with data
     * references enabled every instruction draws from the scheduler
     * RNG, so blocks cannot skip records without perturbing the
     * stream (such workloads are replayed through next() alone).
     *
     * @param max_count cap on the block length; must be >= 1
     * @param start [out] first instruction address of the block
     * @return block length in instructions (>= 1)
     */
    uint64_t nextInstrBlock(uint64_t max_count, uint64_t &start);

    const WorkloadSpec &spec() const { return spec_; }

    /** Instructions emitted since construction. */
    uint64_t instructions() const { return instructions_; }

    /** Layout of component `i` (diagnostics, Figure 2 inventory). */
    const CodeLayout &layout(size_t i) const { return *layouts_[i]; }

    /** Number of address-space switches so far. */
    uint64_t contextSwitches() const { return switches_; }

    /** ASID of the component that issued the last instruction (the
     *  one nextInstrBlock just returned). */
    Asid currentAsid() const { return components_[current_].asid; }

  private:
    struct Component
    {
        std::unique_ptr<CodeWalker> code;
        std::unique_ptr<DataWalker> data;
        Asid asid;
        uint32_t dwellMean;
    };

    void switchComponent();

    WorkloadSpec spec_;

    std::vector<std::unique_ptr<CodeLayout>> layouts_;
    std::vector<Component> components_;
    DiscreteSampler pick_;
    Rng schedRng_;

    size_t current_ = 0;
    int64_t dwellLeft_ = 0;
    uint64_t instructions_ = 0;
    uint64_t switches_ = 0;

    // Pending data references generated by the last instruction.
    TraceRecord pending_[2];
    int pendingCount_ = 0;
    int pendingPos_ = 0;
    bool lastWasStore_ = false;
};

} // namespace ibs

#endif // IBS_WORKLOAD_MODEL_H
