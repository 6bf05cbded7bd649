/**
 * @file
 * Victim cache (Jouppi 1990).
 *
 * The paper evaluates one of Jouppi's two structures (the stream
 * buffer) and discusses conflict-miss remedies (associativity, CML
 * buffers, page placement). The victim cache is the classic hardware
 * alternative: a small fully-associative buffer holding the last few
 * lines evicted from a direct-mapped cache, swapping a line back on a
 * victim hit. `bench/ablation_victim` compares it against the
 * associativity the paper recommends.
 *
 * The main array is a plain Cache (cache/cache.h); the buffer takes
 * the line each main-array miss evicts (Cache::accessEx).
 */

#ifndef IBS_CACHE_VICTIM_H
#define IBS_CACHE_VICTIM_H

#include <cstdint>
#include <deque>
#include <string>

#include "cache/cache.h"
#include "cache/config.h"
#include "obs/registry.h"

namespace ibs {

/**
 * A direct-mapped (or set-associative) cache with a small
 * fully-associative victim buffer behind it.
 */
class VictimCache
{
  public:
    /**
     * @param config main cache geometry
     * @param victim_lines victim buffer capacity in lines
     */
    VictimCache(const CacheConfig &config, uint32_t victim_lines);

    /**
     * Reference `addr`.
     *
     * @retval 0 main-cache hit
     * @retval 1 victim-buffer hit (line swapped back, one-cycle-class
     *           event, not a full miss)
     * @retval 2 full miss (filled from the next level)
     */
    int access(uint64_t addr);

    uint64_t accesses() const { return main_.accesses(); }
    uint64_t mainHits() const { return main_.hits(); }
    uint64_t victimHits() const { return victimHits_; }
    uint64_t misses() const
    {
        return accesses() - mainHits() - victimHits_;
    }

    const CacheConfig &config() const { return main_.config(); }

    /**
     * Publish access/hit/miss counts to the observability registry
     * under "victim.<instance>.<event>". Caller gates on
     * Registry::enabled().
     */
    void
    publishCounters(obs::Registry &registry,
                    const std::string &instance) const
    {
        const std::string prefix = "victim." + instance + ".";
        registry.add(prefix + "accesses", accesses());
        registry.add(prefix + "main_hits", mainHits());
        registry.add(prefix + "victim_hits", victimHits_);
        registry.add(prefix + "misses", misses());
    }

  private:
    Cache main_;
    uint32_t victimLines_;
    std::deque<uint64_t> victims_; ///< FIFO of line addresses.
    uint64_t victimHits_ = 0;
};

} // namespace ibs

#endif // IBS_CACHE_VICTIM_H
