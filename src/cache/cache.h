/**
 * @file
 * Set-associative cache model.
 *
 * A purely functional (hit/miss) cache: timing is layered on top by
 * core/FetchEngine and core/DecstationModel. This separation — *what
 * misses* vs *what a miss costs* — is what lets Tables 5-8 share one
 * miss model under different L1-L2 interface policies.
 *
 * Storage is structure-of-arrays: packed tag and stamp vectors plus a
 * valid bitset, rather than a vector of per-line structs. The tag
 * probe — the inner loop of every trace-driven simulation — then
 * walks 8-byte tags instead of 24-byte padded structs, and the
 * direct-mapped case reduces to a single load-compare. Set-associative
 * probes compare four ways at a time (probeWays): the contiguous SoA
 * tag row turns the unrolled mask-compare into SIMD lane compares
 * under -O3, with no intrinsics and no target-specific flags.
 * Geometry (set mask, line shift, way count) is precomputed at
 * construction so the access path performs no divisions and
 * re-derives nothing.
 */

#ifndef IBS_CACHE_CACHE_H
#define IBS_CACHE_CACHE_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.h"
#include "obs/registry.h"
#include "stats/summary.h"

namespace ibs {

/** Classic set-associative cache with selectable replacement. */
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
     * times with a single tag probe. On a hit the counters and — for
     * LRU — the stamp clock advance exactly as `count` scalar
     * access() calls would have left them (the clock steps by `count`
     * and the line takes the final stamp), so interleaving batched
     * and scalar accesses is bit-identical to an all-scalar run. On a
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

    /** Hit/miss test without any state change. */
    bool contains(uint64_t addr) const;

    /**
     * Install the line containing `addr` without counting an access
     * (used by prefetch engines). Touches recency on an existing line.
     */
    void insert(uint64_t addr);

    /** Invalidate the line containing `addr` if present. */
    void invalidate(uint64_t addr);

    /** Invalidate everything (e.g. between Tapeworm trials). */
    void invalidateAll();

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

    /** Reset hit/miss counters without touching contents. */
    void resetStats();

    /** Number of currently valid lines (diagnostics). */
    uint64_t validLines() const;

    /** Line addresses of all valid lines (inclusion checking). */
    std::vector<uint64_t> validLineAddrs() const;

    /**
     * Initial LFSR state for Replacement::Random, derived from the
     * cache geometry. Seeding every instance with the same constant
     * would make the victim streams of distinct caches in one
     * simulation (L1 and L2, say) step the *same* LFSR sequence in
     * lockstep — correlated replacement the hardware would not have.
     * The mix is deterministic and documented so traces remain
     * reproducible: splitmix64-style avalanche of
     * (sizeBytes, assoc, lineBytes) XORed into the classic 0xace1,
     * folded to the LFSR's 16 bits, with 0xace1 substituted should
     * the fold come out zero (an all-zero Galois LFSR never leaves
     * zero).
     */
    static uint64_t lfsrSeed(const CacheConfig &config);

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
     *  ~0; the hot lookup therefore compares tags alone, without a
     *  separate valid-bit load. */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    bool isValid(size_t idx) const
    {
        return (valid_[idx >> 6] >> (idx & 63)) & 1u;
    }
    void setValid(size_t idx)
    {
        valid_[idx >> 6] |= uint64_t{1} << (idx & 63);
    }
    void clearValid(size_t idx)
    {
        valid_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
    }

    /** Choose a victim way in `set` per the replacement policy. */
    uint32_t victimWay(uint64_t set);

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
    std::vector<uint64_t> stamps_; ///< Recency (LRU) / insertion (FIFO).
    std::vector<uint64_t> valid_;  ///< Bitset, one bit per line.

    uint64_t clock_ = 0;
    uint64_t lfsr_; ///< For Replacement::Random; see lfsrSeed().
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
        // Branchless direct-mapped probe: the counter bumps and the
        // stamp write are predicated on the compare result (cmov /
        // csel), so run replay pays no branch-miss penalty when hit
        // and miss runs interleave. A miss adds zero to every counter
        // and stores the stamp's own value back — state is untouched,
        // exactly as the early-return form left it.
        const bool hit = tags_[set] == tag;
        const uint64_t n = hit ? count : 0;
        accesses_ += n;
        hits_ += n;
        if (config_.replacement == Replacement::LRU) {
            clock_ += n;
            stamps_[set] = hit ? clock_ : stamps_[set];
        }
        return hit;
    }
    const size_t base = set * assoc_;
    const int w = probeWays(base, tag);
    if (w < 0)
        return false;
    accesses_ += count;
    hits_ += count;
    if (config_.replacement == Replacement::LRU) {
        clock_ += count;
        stamps_[base + static_cast<uint32_t>(w)] = clock_;
    }
    return true;
}

} // namespace ibs

#endif // IBS_CACHE_CACHE_H
