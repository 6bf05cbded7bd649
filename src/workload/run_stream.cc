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

namespace {

uint32_t
checkedLineBytes(uint32_t line_bytes)
{
    if (line_bytes < kInstrBytes || !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "RunStream: line_bytes must be a power of two >= 4");
    }
    return line_bytes;
}

} // namespace

RunStream::RunStream(WorkloadModel &model, uint32_t line_bytes,
                     uint64_t max_instructions)
    : model_(&model), lineBytes_(checkedLineBytes(line_bytes)),
      lineMask_(~uint64_t{line_bytes - 1}), cap_(max_instructions)
{
    if (model.spec().data.enabled) {
        throw std::invalid_argument(
            "RunStream: workload " + model.spec().name +
            " has data references enabled; run traces are "
            "instruction-only");
    }
}

RunStream::RunStream(const RunTrace &source, uint32_t line_bytes)
    : sourceNext_(source.runs.data()),
      sourceEnd_(source.runs.data() + source.runs.size()),
      lineBytes_(checkedLineBytes(line_bytes)),
      lineMask_(~uint64_t{line_bytes - 1})
{}

bool
RunStream::refill()
{
    if (pulled_ >= cap_)
        return false;
    if (model_ != nullptr) {
        blockLen_ = model_->nextInstrBlock(cap_ - pulled_, blockStart_);
        blockAsid_ = model_->currentAsid();
    } else {
        if (sourceNext_ == sourceEnd_)
            return false;
        blockStart_ = sourceNext_->startVaddr;
        blockLen_ = sourceNext_->count;
        blockAsid_ = sourceNext_->asid;
        ++sourceNext_;
    }
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
    // A guess, not a bound: runs average 4.2 instructions at 32-B
    // lines, but 1.0, 1.8 and 2.9 at 4, 8 and 16 B, where the vector
    // regrows. Only a workload's first trace is generated; SuiteTraces
    // cuts the others (cutRunTrace), sized exactly.
    trace.runs.reserve(max_instructions / 4 + 1);
    FetchRun run;
    while (stream.next(run))
        trace.runs.push_back(run);
    trace.instructions = stream.instructions();
    return trace;
}

RunTrace
cutRunTrace(const RunTrace &source, uint32_t line_bytes)
{
    RunTrace trace;
    trace.lineBytes = line_bytes;
    // Count, then fill: cutting twice keeps the vector at exactly
    // the runs it retains, with no spare capacity for a suite's
    // lifetime.
    size_t runs = 0;
    FetchRun run;
    for (RunStream count(source, line_bytes); count.next(run);)
        ++runs;
    trace.runs.reserve(runs);
    RunStream fill(source, line_bytes);
    while (fill.next(run))
        trace.runs.push_back(run);
    trace.instructions = fill.instructions();
    return trace;
}

} // namespace ibs
