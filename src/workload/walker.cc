/**
 * @file
 * CodeWalker and DataWalker implementations.
 */

#include "workload/walker.h"

#include <algorithm>
#include <cassert>

namespace ibs {

namespace {

/**
 * The geometric part of a length in 4-byte units with the given mean
 * in bytes (minimum one unit); geomUnits adds the one.
 */
GeometricSampler
unitsSampler(uint32_t mean_bytes)
{
    const double mean_units =
        std::max(1.0, static_cast<double>(mean_bytes) / 4.0);
    // 1 + Geometric(p) has mean 1 + (1-p)/p = 1/p; solve 1/p = mean.
    // A mean of one unit gives p = 1: always one unit, and no draw.
    return GeometricSampler(1.0 / mean_units);
}

int64_t
geomUnits(Rng &rng, const GeometricSampler &units)
{
    return 1 + static_cast<int64_t>(units.sample(rng));
}

} // namespace

CodeWalker::CodeWalker(const CodeLayout &layout,
                       const ComponentParams &params, Rng rng)
    : layout_(layout), params_(params), rng_(rng),
      zipf_(params.hotProcs > 0 &&
                    params.hotProcs < layout.size()
                ? params.hotProcs : layout.size(),
            params.zipfS),
      visitUnits_(unitsSampler(params.visitMeanBytes)),
      runUnits_(unitsSampler(params.runMeanBytes)),
      loopUnits_(unitsSampler(params.loopMeanBytes)),
      skipUnits_(unitsSampler(params.skipMeanBytes))
{
    stack_.reserve(MAX_DEPTH);
    enter(static_cast<uint32_t>(layout_.indexOf(0)));
}

void
CodeWalker::enter(uint32_t index)
{
    procIndex_ = index;
    const Procedure &proc = layout_.byIndex(index);
    procStart_ = proc.start;
    procEnd_ = proc.start + proc.size;
    pc_ = procStart_;
    visitLeft_ = geomUnits(rng_, visitUnits_);
    newRun();
}

void
CodeWalker::newRun()
{
    runLeft_ = geomUnits(rng_, runUnits_);
}

void
CodeWalker::transfer()
{
    if (!stack_.empty() && rng_.nextBool(P_RETURN)) {
        const Frame frame = stack_.back();
        stack_.pop_back();
        procIndex_ = frame.procIndex;
        const Procedure &proc = layout_.byIndex(procIndex_);
        procStart_ = proc.start;
        procEnd_ = proc.start + proc.size;
        pc_ = std::min(frame.returnPc, procEnd_ - 4);
        visitLeft_ = geomUnits(rng_, visitUnits_);
        newRun();
        return;
    }
    // Call a new procedure: usually a Zipf draw from the hot tier,
    // occasionally a cold excursion anywhere in the image.
    size_t rank;
    if (params_.pCold > 0.0 && rng_.nextBool(params_.pCold))
        rank = rng_.nextBounded(layout_.size());
    else
        rank = zipf_.sample(rng_);
    const auto callee = static_cast<uint32_t>(layout_.indexOf(rank));
    if (stack_.size() < MAX_DEPTH)
        stack_.push_back(Frame{procIndex_, pc_});
    enter(callee);
}

void
CodeWalker::branch()
{
    if (visitLeft_ <= 0 || pc_ >= procEnd_) {
        transfer();
        return;
    }
    const double u = rng_.nextDouble();
    if (u < params_.pLoop) {
        // Backward branch: bounded by the procedure start.
        const int64_t dist = 4 * geomUnits(rng_, loopUnits_);
        const uint64_t target = pc_ > procStart_ + dist
            ? pc_ - dist : procStart_;
        pc_ = target;
    } else if (u < params_.pLoop + params_.pSkip) {
        // Short taken forward branch.
        const int64_t dist = 4 * geomUnits(rng_, skipUnits_);
        pc_ += dist;
        if (pc_ >= procEnd_) {
            transfer();
            return;
        }
    }
    // Otherwise fall through sequentially.
    newRun();
}

uint64_t
CodeWalker::next()
{
    if (runLeft_ <= 0)
        branch();
    const uint64_t addr = pc_;
    pc_ += 4;
    --runLeft_;
    --visitLeft_;
    if (pc_ >= procEnd_)
        runLeft_ = 0; // Force a decision at the procedure boundary.
    ++generated_;
    return addr;
}

uint64_t
CodeWalker::nextBlock(uint64_t max_count, uint64_t &start)
{
    if (runLeft_ <= 0)
        branch();
    // Within a run no randomness is drawn and pc advances by 4, so
    // everything up to the run end, the procedure end, or the cap can
    // be emitted as one block. branch() always leaves pc_ < procEnd_
    // and runLeft_ >= 1, so n >= 1.
    uint64_t n = static_cast<uint64_t>(runLeft_);
    const uint64_t to_proc_end = (procEnd_ - pc_) / 4;
    n = std::min(n, to_proc_end);
    n = std::min(n, max_count);
    start = pc_;
    pc_ += 4 * n;
    runLeft_ -= static_cast<int64_t>(n);
    visitLeft_ -= static_cast<int64_t>(n);
    if (pc_ >= procEnd_)
        runLeft_ = 0; // Force a decision at the procedure boundary.
    generated_ += n;
    return n;
}

DataWalker::DataWalker(const DataParams &params, uint64_t base_offset,
                       Rng rng)
    : params_(params), base_(params.dataBase + base_offset), rng_(rng),
      stackWords_(std::max<uint64_t>(1, params.stackBytes / 4)),
      stackDepth_(8.0 / static_cast<double>(stackWords_))
{
    const size_t blocks =
        std::max<uint64_t>(1, params_.heapBytes / 32);
    heapZipf_ = ZipfSampler(blocks, params_.heapZipfS);
    // Window-local popularity shuffle: hot blocks scatter *within*
    // nearby pages but popularity still decays along the region, so
    // heaps have realistic page-level locality (allocators place hot
    // objects together). A global shuffle would spread the hot set
    // over every page and melt the TLB, which real heaps do not do.
    constexpr size_t WINDOW = 512; // 16 KB (4 pages) of 32-B blocks.
    blockShuffle_.resize(blocks);
    for (uint32_t i = 0; i < blocks; ++i)
        blockShuffle_[i] = i;
    for (size_t base = 0; base < blocks; base += WINDOW) {
        const size_t end = std::min(base + WINDOW, blocks);
        for (size_t i = end; i > base + 1; --i)
            std::swap(blockShuffle_[i - 1],
                      blockShuffle_[base +
                                    rng_.nextBounded(i - base)]);
    }
}

uint64_t
DataWalker::next()
{
    if (rng_.nextBool(params_.pStack)) {
        // Stack window: geometric depth from the top, word aligned.
        uint64_t depth = stackDepth_.sample(rng_);
        if (depth >= stackWords_)
            depth = stackWords_ - 1;
        // Stack grows down from just below the heap base.
        return base_ - 4 - depth * 4;
    }
    const size_t rank = heapZipf_.sample(rng_);
    const uint64_t block = blockShuffle_[rank];
    const uint64_t offset = rng_.nextBounded(8) * 4;
    return base_ + block * 32 + offset;
}

} // namespace ibs
