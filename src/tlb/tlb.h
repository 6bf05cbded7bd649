/**
 * @file
 * TLB model.
 *
 * Tables 1 and 3 of the paper decompose DECstation CPI into I-cache,
 * D-cache, TLB and write-stall components. The R2000 TLB is a
 * 64-entry, fully-associative, software-managed buffer of 4-KB page
 * mappings tagged by ASID; kseg0 (kernel direct-mapped) references do
 * not consult it. This model supports fully- and set-associative
 * LRU geometries so TLB reach can be studied alongside the caches.
 *
 * The entries live in a Cache (cache/cache.h), the one tag store of
 * the library: each entry is a 4-KB line whose key carries the ASID
 * above the page address, so the set index is the low VPN bits and
 * one tag compare matches VPN and ASID together. Only the kseg0
 * bypass is the TLB's own.
 */

#ifndef IBS_TLB_TLB_H
#define IBS_TLB_TLB_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cache/cache.h"
#include "cache/config.h"
#include "obs/registry.h"
#include "trace/record.h"
#include "vm/page.h"

namespace ibs {

/** TLB geometry and kseg0 handling. */
struct TlbConfig
{
    uint32_t entries = 64;     ///< Total entries (R2000: 64).
    uint32_t assoc = 64;       ///< Ways; == entries for fully-assoc.
    Replacement replacement = Replacement::LRU; ///< Read by nothing.
    bool kseg0Bypasses = true; ///< Kernel direct-mapped refs skip TLB.

    uint32_t numSets() const { return entries / assoc; }
    void validate() const;
    std::string toString() const;
};

/** Software-managed TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Translate a reference; refills the entry on a miss. Translated
     * addresses must lie below 2^48 (see key()).
     *
     * @retval true TLB hit (or kseg0 bypass)
     */
    bool access(Asid asid, uint64_t vaddr);

    /** Hit/miss probe with no state change (kseg0 counts as present). */
    bool contains(Asid asid, uint64_t vaddr) const;

    /** Drop everything. */
    void flushAll() { entries_.invalidateAll(); }

    const TlbConfig &config() const { return config_; }
    uint64_t accesses() const { return entries_.accesses(); }
    uint64_t hits() const { return entries_.hits(); }
    uint64_t misses() const { return entries_.misses(); }

    /** Misses per access. */
    double missRatio() const { return entries_.missRatio(); }

    void resetStats() { entries_.resetStats(); }

    /**
     * Publish access/hit/miss counts to the observability registry
     * under "tlb.<instance>.<event>". Caller gates on
     * Registry::enabled().
     */
    void
    publishCounters(obs::Registry &registry,
                    const std::string &instance) const
    {
        const std::string prefix = "tlb." + instance + ".";
        registry.add(prefix + "accesses", accesses());
        registry.add(prefix + "hits", hits());
        registry.add(prefix + "misses", misses());
    }

  private:
    /** Bit position of the ASID in an entry key. */
    static constexpr unsigned kAsidShift = 48;

    /** Entry key of (asid, vaddr): the page address, ASID on top.
     *  Throws std::out_of_range for a translated address at or above
     *  2^48, which would alias the ASID (the R2000's are 32-bit). */
    static uint64_t
    key(Asid asid, uint64_t vaddr)
    {
        if (vaddr >> kAsidShift)
            throw std::out_of_range("Tlb: virtual address >= 2^48");
        return (uint64_t{asid} << kAsidShift) |
            (vaddr & ~(PAGE_SIZE - 1));
    }

    TlbConfig config_;
    Cache entries_; ///< One PAGE_SIZE line per entry.
};

} // namespace ibs

#endif // IBS_TLB_TLB_H
