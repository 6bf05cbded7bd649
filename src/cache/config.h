/**
 * @file
 * Cache geometry configuration.
 */

#ifndef IBS_CACHE_CONFIG_H
#define IBS_CACHE_CONFIG_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ibs {

/**
 * Replacement policy. Every Cache is LRU (cache/cache.h), so this is
 * not a setting: nothing in the library reads CacheConfig::replacement
 * or TlbConfig::replacement. The type and the two members remain only
 * so that aggregate initializers spelling Replacement::LRU as a
 * fourth field (perfbench/layers.cc) still compile.
 */
enum class Replacement : uint8_t
{
    LRU, ///< Least-recently-used.
};

/**
 * Geometry of one cache level.
 *
 * All sizes are in bytes and must be powers of two; associativity must
 * divide the number of lines.
 */
struct CacheConfig
{
    uint64_t sizeBytes = 8 * 1024; ///< Total capacity.
    uint32_t assoc = 1;            ///< Ways per set (1 = direct-mapped).
    uint32_t lineBytes = 32;       ///< Line (block) size.
    Replacement replacement = Replacement::LRU; ///< Read by nothing.

    /** Number of sets. */
    uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<uint64_t>(assoc) * lineBytes);
    }

    /** log2(lineBytes). */
    unsigned
    lineShift() const
    {
        return static_cast<unsigned>(std::countr_zero(
            static_cast<uint64_t>(lineBytes)));
    }

    /** Line-aligned address of `addr`. */
    uint64_t
    lineAddr(uint64_t addr) const
    {
        return addr & ~static_cast<uint64_t>(lineBytes - 1);
    }

    /**
     * Cache page-colors: bytes indexed per way / page size, at least 1.
     * Physically-indexed caches larger than assoc * PAGE_SIZE have
     * placement-sensitive behaviour (Figure 5).
     */
    uint64_t
    colors(uint64_t page_size = 4096) const
    {
        const uint64_t bytes_per_way = sizeBytes / assoc;
        return bytes_per_way > page_size ? bytes_per_way / page_size : 1;
    }

    /** Validate invariants; throws std::invalid_argument on violation. */
    void validate() const;

    /** Short description, e.g. "8KB/1-way/32B". */
    std::string toString() const;
};

} // namespace ibs

#endif // IBS_CACHE_CONFIG_H
