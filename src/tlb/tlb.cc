/**
 * @file
 * Tlb implementation.
 */

#include "tlb/tlb.h"

#include <sstream>
#include <stdexcept>

namespace ibs {

namespace {

/** The Cache geometry holding a TLB's entries. */
CacheConfig
entryStore(const TlbConfig &config)
{
    config.validate();
    return CacheConfig{uint64_t{config.entries} * PAGE_SIZE, config.assoc,
                       static_cast<uint32_t>(PAGE_SIZE),
                       config.replacement};
}

} // namespace

void
TlbConfig::validate() const
{
    if (entries == 0 || assoc == 0)
        throw std::invalid_argument("TLB entries/assoc must be >= 1");
    if (entries % assoc != 0)
        throw std::invalid_argument(
            "TLB associativity must divide the entry count");
    const uint32_t sets = entries / assoc;
    if (sets & (sets - 1))
        throw std::invalid_argument(
            "TLB set count must be a power of two");
}

std::string
TlbConfig::toString() const
{
    std::ostringstream os;
    os << entries << "-entry/" << assoc << "-way/"
       << replacementName(replacement);
    return os.str();
}

Tlb::Tlb(const TlbConfig &config)
    : config_(config), entries_(entryStore(config))
{
}

bool
Tlb::access(Asid asid, uint64_t vaddr)
{
    if (config_.kseg0Bypasses && isKseg0(vaddr))
        return true;
    return entries_.access(key(asid, vaddr));
}

bool
Tlb::contains(Asid asid, uint64_t vaddr) const
{
    if (config_.kseg0Bypasses && isKseg0(vaddr))
        return true;
    return entries_.contains(key(asid, vaddr));
}

} // namespace ibs
