/**
 * @file
 * MemoryMap implementation.
 */

#include "vm/address_space.h"

#include <cassert>

namespace ibs {

MemoryMap::MemoryMap(std::unique_ptr<PageAllocator> allocator)
    : allocator_(std::move(allocator))
{
    assert(allocator_);
}

uint64_t
MemoryMap::translate(Asid asid, uint64_t vaddr)
{
    if (isKseg0(vaddr))
        return kseg0ToPhys(vaddr);

    const uint64_t vpn = pageNumber(vaddr);
    PageTable &table = tables_[asid];
    uint64_t pfn;
    if (!table.lookup(vpn, pfn)) {
        // FRAME_BASE keeps the allocatable pool disjoint from kseg0
        // (a power-of-two offset, so cache page-colors are
        // preserved).
        pfn = FRAME_BASE + allocator_->allocate(asid, vpn);
        table.map(vpn, pfn);
    }
    return makeAddr(pfn, pageOffset(vaddr));
}

bool
MemoryMap::recolor(Asid asid, uint64_t vpn, uint64_t &old_pfn,
                   uint64_t &new_pfn)
{
    auto it = tables_.find(asid);
    if (it == tables_.end() || !it->second.lookup(vpn, old_pfn))
        return false;
    new_pfn = FRAME_BASE + allocator_->allocate(asid, vpn);
    it->second.map(vpn, new_pfn);
    return true;
}

} // namespace ibs
