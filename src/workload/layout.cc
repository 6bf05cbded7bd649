/**
 * @file
 * CodeLayout implementation.
 */

#include "workload/layout.h"

#include <algorithm>
#include <cassert>

#include "vm/page.h"

namespace ibs {

CodeLayout::CodeLayout(const ComponentParams &params, Rng &rng)
{
    assert(params.procCount > 0);
    assert(params.procMeanBytes >= 16);

    // Independent sub-streams so toggling fragmentation or clustering
    // does not perturb the procedure sizes drawn for the same seed.
    Rng size_rng = rng.fork();
    Rng gap_rng = rng.fork();
    Rng shuffle_rng = rng.fork();

    procs_.reserve(params.procCount);
    uint64_t cursor = params.base;
    for (uint32_t i = 0; i < params.procCount; ++i) {
        // Procedure sizes: 32-byte floor plus an exponential body, so
        // the size distribution is right-skewed like real link maps.
        const double body = size_rng.nextExponential(
            std::max(1.0, static_cast<double>(params.procMeanBytes) -
                          32.0));
        uint32_t size = 32 + (static_cast<uint32_t>(body) & ~3u);
        if (size < 32)
            size = 32;

        if (params.fragmented) {
            // Scatter: advance to a fresh page with probability 1/4,
            // else leave a small alignment gap. Models procedures
            // strewn across many library/text pages.
            if (gap_rng.nextBool(0.25)) {
                cursor = (cursor + PAGE_SIZE) & ~(PAGE_SIZE - 1);
                cursor += (gap_rng.nextBounded(PAGE_SIZE / 64)) * 64;
            } else {
                cursor += gap_rng.nextBounded(4) * 16;
            }
        }

        procs_.push_back(Procedure{cursor, size});
        codeBytes_ += size;
        cursor += size;
    }

    // Popularity-to-placement mapping. Scattered (bloated) images map
    // rank r to a random placement index; clustered (single-module)
    // images keep ranks in address order with only window-local
    // shuffling, modelling the locality of code compiled together.
    rankToIndex_.resize(procs_.size());
    for (uint32_t i = 0; i < rankToIndex_.size(); ++i)
        rankToIndex_[i] = i;
    if (params.clusteredHot) {
        constexpr size_t WINDOW = 8;
        for (size_t base = 0; base < rankToIndex_.size();
             base += WINDOW) {
            const size_t end =
                std::min(base + WINDOW, rankToIndex_.size());
            for (size_t i = end; i > base + 1; --i)
                std::swap(rankToIndex_[i - 1],
                          rankToIndex_[base +
                                       shuffle_rng.nextBounded(i - base)]);
        }
    } else {
        for (size_t i = rankToIndex_.size(); i > 1; --i)
            std::swap(rankToIndex_[i - 1],
                      rankToIndex_[shuffle_rng.nextBounded(i)]);
    }
}

} // namespace ibs
