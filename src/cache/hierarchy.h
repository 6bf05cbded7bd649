/**
 * @file
 * Two-level cache hierarchy with optional inclusion enforcement.
 *
 * The paper's related work cites Baer & Wang's inclusion-property
 * analysis [Baer87, Baer88]: a multi-level hierarchy is *inclusive*
 * when every L1 line is also present in the L2, which simplifies
 * coherence at the cost of back-invalidations (an L2 eviction must
 * kill the corresponding L1 lines). The FetchEngine's timing model is
 * non-inclusive (mostly-inclusive in practice); this class provides
 * the functional two-level model with inclusion as a switch, for
 * miss-ratio studies and for quantifying what inclusion costs under
 * bloated code (bench/ablation_inclusion).
 */

#ifndef IBS_CACHE_HIERARCHY_H
#define IBS_CACHE_HIERARCHY_H

#include <cstdint>

#include "cache/cache.h"

namespace ibs {

/** Result of one hierarchy access. */
struct HierarchyResult
{
    bool l1Hit = false;
    bool l2Hit = false; ///< Meaningful only when !l1Hit.
};

/** L1 + L2 functional model. */
class CacheHierarchy
{
  public:
    /**
     * @param l1 level-1 geometry
     * @param l2 level-2 geometry (line size must be >= L1's)
     * @param inclusive enforce the inclusion property
     */
    CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                   bool inclusive);

    /** Reference `addr` through both levels. */
    HierarchyResult access(uint64_t addr);

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    bool inclusive() const { return inclusive_; }

    uint64_t accesses() const { return accesses_; }
    uint64_t l1Misses() const { return l1Misses_; }
    uint64_t l2Misses() const { return l2Misses_; }

    /** L1 lines killed by L2 evictions (inclusive mode only). */
    uint64_t backInvalidations() const { return backInvalidations_; }

    /**
     * Verify the inclusion invariant by exhaustive probe: every
     * valid L1 line must be present in the L2. O(L1 lines); for
     * tests.
     */
    bool checkInclusion() const;

  private:
    Cache l1_;
    Cache l2_;
    bool inclusive_;
    uint64_t accesses_ = 0;
    uint64_t l1Misses_ = 0;
    uint64_t l2Misses_ = 0;
    uint64_t backInvalidations_ = 0;
};

} // namespace ibs

#endif // IBS_CACHE_HIERARCHY_H
