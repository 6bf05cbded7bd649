/**
 * @file
 * RunStream implementation.
 */

#include "workload/run_stream.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace ibs {

RunStream::RunStream(WorkloadModel &model, uint32_t line_bytes,
                     uint64_t max_instructions)
    : model_(model), lineBytes_(line_bytes),
      lineMask_(~uint64_t{line_bytes - 1}), cap_(max_instructions)
{
    if (line_bytes < kInstrBytes || !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "RunStream: line_bytes must be a power of two >= 4");
    }
    if (model.spec().data.enabled) {
        throw std::invalid_argument(
            "RunStream: workload " + model.spec().name +
            " has data references enabled; run traces are "
            "instruction-only");
    }
}

bool
RunStream::refill()
{
    if (pulled_ >= cap_)
        return false;
    blockLen_ = model_.nextInstrBlock(cap_ - pulled_, blockStart_);
    blockAsid_ = model_.currentAsid();
    pulled_ += blockLen_;
    return true;
}

bool
RunStream::next(FetchRun &run)
{
    for (;;) {
        if (blockLen_ == 0 && !refill()) {
            if (pendCount_ == 0)
                return false;
            run = FetchRun{pendStart_, pendCount_, pendAsid_};
            pendCount_ = 0;
            emitted_ += run.count;
            return true;
        }
        if (pendCount_ != 0) {
            // The cut rule: extend only while the next address is
            // contiguous *and* still in the line the run started in.
            // An address-space switch also cuts, so every run has one
            // ASID.
            const uint64_t pend_end =
                pendStart_ + uint64_t{pendCount_} * kInstrBytes;
            const uint64_t run_line = pendStart_ & lineMask_;
            if (blockStart_ == pend_end &&
                (blockStart_ & lineMask_) == run_line &&
                blockAsid_ == pendAsid_) {
                const uint64_t room =
                    (run_line + lineBytes_ - blockStart_) /
                    kInstrBytes;
                const uint64_t m = std::min(blockLen_, room);
                pendCount_ += static_cast<uint32_t>(m);
                blockStart_ += m * kInstrBytes;
                blockLen_ -= m;
                continue;
            }
            run = FetchRun{pendStart_, pendCount_, pendAsid_};
            pendCount_ = 0;
            emitted_ += run.count;
            return true;
        }
        // Start a new run at the block head, bounded by its line.
        const uint64_t room =
            ((blockStart_ & lineMask_) + lineBytes_ - blockStart_) /
            kInstrBytes;
        const uint64_t m = std::min(blockLen_, room);
        pendStart_ = blockStart_;
        pendAsid_ = blockAsid_;
        pendCount_ = static_cast<uint32_t>(m);
        blockStart_ += m * kInstrBytes;
        blockLen_ -= m;
    }
}

RunTrace
generateRunTrace(WorkloadModel &model, uint32_t line_bytes,
                 uint64_t max_instructions)
{
    RunStream stream(model, line_bytes, max_instructions);
    RunTrace trace;
    trace.lineBytes = line_bytes;
    // A conservative guess: traces typically compress well past 4
    // instructions per run.
    trace.runs.reserve(max_instructions / 4 + 1);
    FetchRun run;
    while (stream.next(run))
        trace.runs.push_back(run);
    trace.instructions = stream.instructions();
    return trace;
}

} // namespace ibs
