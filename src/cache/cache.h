/**
 * @file
 * Set-associative LRU cache model.
 *
 * A purely functional (hit/miss) cache: timing is layered on top by
 * core/FetchEngine and core/DecstationModel. This separation — *what
 * misses* vs *what a miss costs* — is what lets Tables 5-8 share one
 * miss model under different L1-L2 interface policies.
 *
 * Replacement is LRU, the one policy the paper's machines use.
 * Storage is structure-of-arrays: packed tag and stamp vectors rather
 * than a vector of per-line structs, and an invalid slot holds
 * kInvalidTag, so the tag is also the valid mark. The tag probe — the
 * inner loop of every trace-driven simulation — then walks 8-byte
 * tags instead of 24-byte padded structs, and the direct-mapped case
 * reduces to a single load-compare. Set-associative probes compare
 * four ways at a time (probeWays): the contiguous SoA tag row turns
 * the unrolled mask-compare into SIMD lane compares under -O3, with
 * no intrinsics and no target-specific flags. Geometry (set mask,
 * line shift, way count) is precomputed at construction so the
 * access path performs no divisions and re-derives nothing.
 */

#ifndef IBS_CACHE_CACHE_H
#define IBS_CACHE_CACHE_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.h"
#include "obs/registry.h"

namespace ibs {

/** Classic set-associative cache with LRU replacement. */
class Cache
{
  public:
    /** @param config validated geometry (validate() is called here). */
    explicit Cache(const CacheConfig &config);

    /** Outcome of an access, including any eviction it caused. */
    struct AccessOutcome
    {
        bool hit = false;
        bool evicted = false;    ///< A valid line was replaced.
        uint64_t victimAddr = 0; ///< Line address of the victim.
        /** Line index (set * assoc + way) holding the referenced
         *  line after the access: the way that hit, or the way the
         *  miss filled. Stable until that line is replaced, so
         *  callers can keep per-line state beside the tag store. */
        size_t slot = 0;
    };

    /**
     * Reference `addr`; allocate the line on a miss.
     *
     * @retval true hit
     */
    bool access(uint64_t addr);

    /** As access(), but reports the evicted line and the slot (for
     *  inclusion enforcement, victim buffers and sub-block state). */
    AccessOutcome accessEx(uint64_t addr);

    /**
     * Batched hit path: reference the line containing `addr` `count`
     * times with a single tag probe. On a hit the counters and the
     * LRU stamp clock advance exactly as `count` scalar access()
     * calls would have left them (the clock steps by `count` and the
     * line takes the final stamp), so interleaving batched and scalar
     * accesses is bit-identical to an all-scalar run. On a
     * miss *nothing* changes (no allocation, no counters) and false
     * is returned so the caller can fall back to the scalar path.
     *
     * Defined inline below: this probe runs once per compressed run
     * in the batched replay loop, and keeping it in the header lets
     * the compiler fold it into FetchEngine::fetchRun's fast path.
     *
     * @retval true hit; the batch has been applied
     */
    bool accessRun(uint64_t addr, uint64_t count);

    /**
     * Reference the line containing `addr` `count` times (count >=
     * 1), allocating it on a miss: counters, recency and later
     * outcomes end exactly as after `count` access() calls, of which
     * at most the first can miss. One accessRun probe on a hit; on a
     * miss, access() followed by accessRun(count - 1).
     * This is how a driver replays one line piece of a run when it
     * needs every miss filled (sim/tapeworm.h, cache/three_c.h).
     *
     * @retval true the first reference hit (so all of them did)
     */
    bool accessLine(uint64_t addr, uint64_t count);

    /** Hit/miss test without any state change. */
    bool contains(uint64_t addr) const;

    /**
     * Install the line containing `addr` without counting an access
     * (used by prefetch engines). Touches recency on an existing line.
     */
    void insert(uint64_t addr);

    /** Invalidate the line containing `addr` if present. */
    void invalidate(uint64_t addr);

    const CacheConfig &config() const { return config_; }

    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return accesses_ - hits_; }

    /** Valid lines replaced by allocations (demand or insert()). */
    uint64_t evictions() const { return evictions_; }

    /** Miss ratio in misses per access. */
    double
    missRatio() const
    {
        return accesses_ ? static_cast<double>(misses()) /
                           static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Number of currently valid lines (diagnostics). */
    uint64_t validLines() const;

    /** Line addresses of all valid lines (inclusion checking). */
    std::vector<uint64_t> validLineAddrs() const;

    /**
     * Publish hit/miss/eviction counts to the observability registry
     * under "cache.<instance>.<event>" (see obs/registry.h for the
     * naming convention). Called by owners (FetchEngine, benches)
     * after a run; the caller gates on Registry::enabled().
     */
    void publishCounters(obs::Registry &registry,
                         const std::string &instance) const;

  private:
    /** Tag value stored in invalid slots. Real tags are
     *  addr >> lineShift with lineShift >= 2, so they can never equal
     *  ~0: the tag is also the line's valid mark, and every probe
     *  compares tags alone. */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    /** The way of `set` a miss fills: its lowest invalid way, else
     *  its least recently used one (the first with the oldest
     *  stamp). Called only for sets of two or more ways. */
    uint32_t victimWay(uint64_t set) const;

    /**
     * Allocate `tag` in `set`, which does not hold it — the one path
     * every miss and insert() takes. The victim way takes the tag and,
     * in a set of two or more ways, the newest stamp (a one-way set
     * has no choice to make, so it keeps no stamps). Counts an
     * eviction when the way held a line.
     *
     * @return the miss outcome: the slot filled and what it evicted
     */
    AccessOutcome fill(uint64_t set, uint64_t tag);

    /**
     * Find the way holding `tag` in the set whose tag row starts at
     * `base`, or -1. Four ways are compared per step with a mask
     * reduction — the SoA tag row is contiguous, so the compiler
     * vectorizes the block into SIMD lane compares — and the lowest
     * set bit selects the lowest matching way, the same way the old
     * scalar first-match loop returned (tags are unique within a set,
     * so at most one lane can match; invalid slots hold kInvalidTag,
     * which also makes this the invalid-way scan victimWay needs).
     * Shared by every probe site: access, accessEx, accessRun,
     * contains, insert, invalidate, victimWay.
     */
    int
    probeWays(size_t base, uint64_t tag) const
    {
        const uint64_t *t = tags_.data() + base;
        uint32_t w = 0;
        for (; w + 4 <= assoc_; w += 4) {
            const unsigned m =
                static_cast<unsigned>(t[w + 0] == tag) |
                (static_cast<unsigned>(t[w + 1] == tag) << 1) |
                (static_cast<unsigned>(t[w + 2] == tag) << 2) |
                (static_cast<unsigned>(t[w + 3] == tag) << 3);
            if (m)
                return static_cast<int>(w) + std::countr_zero(m);
        }
        for (; w < assoc_; ++w) {
            if (t[w] == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    CacheConfig config_;

    // Geometry, precomputed once in the constructor so the access
    // path is shift-mask-compare only.
    uint32_t assoc_ = 1;
    unsigned lineShift_ = 0;
    uint64_t setMask_ = 0; ///< numSets - 1.

    // Line state, structure-of-arrays, way-major within a set.
    std::vector<uint64_t> tags_;   ///< kInvalidTag when invalid.
    std::vector<uint64_t> stamps_; ///< LRU recency; read by victimWay.

    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t evictions_ = 0;
};

inline bool
Cache::accessRun(uint64_t addr, uint64_t count)
{
    const uint64_t tag = addr >> lineShift_;
    const uint64_t set = tag & setMask_;
    if (assoc_ == 1) {
        // Branchless direct-mapped probe: the counter bumps are
        // predicated on the compare result (cmov / csel), so run
        // replay pays no branch-miss penalty when hit and miss runs
        // interleave. A miss adds zero to every counter — state is
        // untouched, exactly as the early-return form left it — and
        // a one-way set keeps no stamp.
        const bool hit = tags_[set] == tag;
        const uint64_t n = hit ? count : 0;
        accesses_ += n;
        hits_ += n;
        return hit;
    }
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w < 0)
        return false;
    accesses_ += count;
    hits_ += count;
    clock_ += count;
    stamps_[base + static_cast<uint32_t>(w)] = clock_;
    return true;
}

inline bool
Cache::accessLine(uint64_t addr, uint64_t count)
{
    if (accessRun(addr, count))
        return true;
    access(addr);
    if (count > 1)
        accessRun(addr, count - 1);
    return false;
}

} // namespace ibs

#endif // IBS_CACHE_CACHE_H
