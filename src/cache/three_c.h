/**
 * @file
 * Three-Cs miss classification (Hill).
 *
 * Figure 1 of the paper decomposes MPI into compulsory, capacity and
 * conflict components using exactly this procedure: capacity misses
 * are approximated by an 8-way set-associative cache of the same size
 * (removing most conflicts), and conflict misses are the *additional*
 * misses a direct-mapped cache takes over the 8-way one. Compulsory
 * misses are first-touch misses (negligible for instruction streams,
 * as the paper notes).
 */

#ifndef IBS_CACHE_THREE_C_H
#define IBS_CACHE_THREE_C_H

#include <cstdint>
#include <unordered_set>

#include "cache/cache.h"

namespace ibs {

/** Miss breakdown produced by ThreeCClassifier. */
struct ThreeCBreakdown
{
    uint64_t accesses = 0;
    uint64_t compulsory = 0;
    uint64_t capacity = 0;
    uint64_t conflict = 0;

    uint64_t total() const { return compulsory + capacity + conflict; }

    /** Misses per 100 instructions for each component. */
    double compulsoryMpi100() const { return per100(compulsory); }
    double capacityMpi100() const { return per100(capacity); }
    double conflictMpi100() const { return per100(conflict); }
    double totalMpi100() const { return per100(total()); }

  private:
    double
    per100(uint64_t n) const
    {
        return accesses ? 100.0 * static_cast<double>(n) /
                          static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Runs the measured cache and its high-associativity proxy in
 * lockstep and classifies each reference.
 */
class ThreeCClassifier
{
  public:
    /**
     * @param size_bytes capacity of both caches
     * @param line_bytes line size of both caches
     * @param measured_assoc associativity of the measured cache
     *        (1 = direct-mapped, the paper's case)
     * @param proxy_assoc associativity of the conflict-free proxy
     *        (8 in the paper)
     */
    ThreeCClassifier(uint64_t size_bytes, uint32_t line_bytes,
                     uint32_t measured_assoc = 1,
                     uint32_t proxy_assoc = 8);

    /** Classify one reference. */
    void access(uint64_t addr) { accessRun(addr, 1); }

    /**
     * Classify `count` references to the line containing `addr`
     * (one line piece of a run, e.g. a FetchRun cut at this
     * classifier's line size): the same breakdown as `count` access()
     * calls, for one first-touch check and one Cache::accessLine per
     * cache.
     */
    void accessRun(uint64_t addr, uint64_t count);

    /** Breakdown so far. */
    ThreeCBreakdown breakdown() const;

    /** Misses of the measured (e.g. direct-mapped) cache. */
    uint64_t measuredMisses() const { return measured_.misses(); }

    /** Misses of the associative proxy. */
    uint64_t proxyMisses() const { return proxy_.misses(); }

  private:
    Cache measured_;
    Cache proxy_;
    std::unordered_set<uint64_t> touched_;
    uint64_t compulsory_ = 0;
    uint64_t accesses_ = 0;
};

} // namespace ibs

#endif // IBS_CACHE_THREE_C_H
