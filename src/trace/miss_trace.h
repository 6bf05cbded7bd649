/**
 * @file
 * Run-encoded L1-refill reference stream (the "miss trace").
 *
 * For blocking fetch configurations (no bypass or stream buffer),
 * the L1 front end never observes L2 state: the L2 reference stream
 * is the ordered sequence of L1-miss line addresses, each followed
 * by the lines its prefetch burst brings in, and timing feedback
 * cannot change which lines miss. Capturing that sequence once
 * therefore lets every fill timing and L2 variant sharing that front
 * end be replayed over a stream that is one entry per L1 miss —
 * typically 5-50x shorter than the instruction stream
 * (sim/collapse.h).
 *
 * Encoding mirrors trace/run_trace.h: consecutive misses at
 * +lineBytes-sequential line addresses collapse into one MissRun.
 * Straight-line code past the end of a line misses sequentially, so
 * the same locality that makes run-length instruction traces small
 * compresses the miss stream too.
 */

#ifndef IBS_TRACE_MISS_TRACE_H
#define IBS_TRACE_MISS_TRACE_H

#include <cstdint>
#include <vector>

namespace ibs {

/** One maximal sequence of line-sequential L1 misses. */
struct MissRun
{
    uint64_t startLine = 0; ///< Line address of the first miss.
    uint32_t count = 0;     ///< Misses in the run (lines are
                            ///< startLine + k * lineBytes).
};

// Every retained miss stream is a vector of these (serve/memo.h
// charges its bytes), so keep the padding to the one count word.
static_assert(sizeof(MissRun) == 16);

/** Ordered, run-compressed stream of L1-miss line addresses. */
struct MissTrace
{
    uint32_t lineBytes = 0; ///< L1 line size the stream was captured at.
    uint64_t misses = 0;    ///< Total misses (sum of run counts).
    std::vector<MissRun> runs;

    /**
     * Record the next miss, in stream order. Extends the last run
     * when `line_addr` continues it at +lineBytes; otherwise starts
     * a new run.
     */
    void
    append(uint64_t line_addr)
    {
        ++misses;
        if (!runs.empty()) {
            MissRun &last = runs.back();
            if (line_addr == last.startLine +
                    uint64_t{last.count} * lineBytes &&
                last.count != UINT32_MAX) {
                ++last.count;
                return;
            }
        }
        runs.push_back(MissRun{line_addr, 1});
    }

    /** Invoke `fn(line_addr)` for every miss, in stream order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const MissRun &run : runs) {
            uint64_t addr = run.startLine;
            for (uint32_t k = 0; k < run.count; ++k,
                          addr += lineBytes)
                fn(addr);
        }
    }

    /** Retained heap bytes (what a byte-budgeted store charges). */
    uint64_t
    bytes() const
    {
        return runs.capacity() * sizeof(MissRun);
    }
};

} // namespace ibs

#endif // IBS_TRACE_MISS_TRACE_H
