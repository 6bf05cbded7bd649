/**
 * @file
 * Sub-block (sector) cache.
 *
 * §5.2 of the paper (footnote 1) reports that a 64-byte line with
 * 16-byte sub-block allocation performs almost as well as a 16-byte
 * line with 3-line prefetch: one tag covers a long line, but a miss
 * refills only the missing sub-block and the sub-blocks *after* it in
 * the line, trading some pollution for cheaper refills. This class
 * models that design; `bench/ablation_subblock` reproduces the
 * comparison.
 *
 * The line tags live in a Cache (cache/cache.h); this class keeps
 * only a valid mask per Cache slot (Cache::AccessOutcome::slot).
 */

#ifndef IBS_CACHE_SUBBLOCK_H
#define IBS_CACHE_SUBBLOCK_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/config.h"
#include "obs/registry.h"

namespace ibs {

/** Result of one sub-block cache access. */
struct SubBlockResult
{
    bool hit = false;      ///< Referenced sub-block was valid.
    bool tagMiss = false;  ///< The whole line was absent.
    uint32_t filled = 0;   ///< Sub-blocks transferred by this fill.
};

/** Set-associative cache with per-sub-block valid bits. */
class SubBlockCache
{
  public:
    /**
     * @param config line geometry (lineBytes = full sector size)
     * @param sub_block_bytes allocation unit; must divide lineBytes
     */
    SubBlockCache(const CacheConfig &config, uint32_t sub_block_bytes);

    /**
     * Reference `addr`. On a miss, validates the missing sub-block and
     * all subsequent sub-blocks of the line (the paper's fill policy).
     */
    SubBlockResult access(uint64_t addr);

    const CacheConfig &config() const { return lines_.config(); }
    uint32_t subBlockBytes() const { return subBytes_; }
    uint32_t subBlocksPerLine() const { return subsPerLine_; }

    uint64_t accesses() const { return lines_.accesses(); }
    uint64_t misses() const { return misses_; }
    uint64_t tagMisses() const { return lines_.misses(); }

    /** Total sub-blocks transferred from the next level. */
    uint64_t subBlocksFilled() const { return filled_; }

    void invalidateAll() { lines_.invalidateAll(); }

    /**
     * Publish access/miss/fill counts to the observability registry
     * under "subblock.<instance>.<event>". Caller gates on
     * Registry::enabled().
     */
    void
    publishCounters(obs::Registry &registry,
                    const std::string &instance) const
    {
        const std::string prefix = "subblock." + instance + ".";
        registry.add(prefix + "accesses", accesses());
        registry.add(prefix + "misses", misses_);
        registry.add(prefix + "tag_misses", tagMisses());
        registry.add(prefix + "sub_blocks_filled", filled_);
    }

  private:
    Cache lines_;
    uint32_t subBytes_;
    uint32_t subsPerLine_;
    /** Per Cache slot: bit i = sub-block i present. A tag miss
     *  resets its slot's mask, so invalidation needs no clearing. */
    std::vector<uint32_t> validMask_;
    uint64_t misses_ = 0; ///< Tag and sub-block misses.
    uint64_t filled_ = 0;
};

} // namespace ibs

#endif // IBS_CACHE_SUBBLOCK_H
