/**
 * @file
 * Per-task page tables and the system memory map.
 *
 * MemoryMap owns one page table per ASID and a shared PageAllocator.
 * Pages are mapped on first touch (demand paging of text). Kernel
 * (kseg0) addresses bypass the tables with the MIPS direct mapping, so
 * kernel code has a *fixed* physical placement — as on the real
 * machine — while user and server code placement depends on the OS
 * allocation policy. This split is what makes the Figure 5 variability
 * experiments faithful: only the mapped portions of the workload
 * re-randomize between Tapeworm trials.
 */

#ifndef IBS_VM_ADDRESS_SPACE_H
#define IBS_VM_ADDRESS_SPACE_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "trace/record.h"
#include "vm/page.h"
#include "vm/page_allocator.h"

namespace ibs {

/** A single task's virtual-to-physical page table. */
class PageTable
{
  public:
    /**
     * Look up a mapping.
     *
     * @param vpn virtual page number
     * @param pfn receives the frame number when mapped
     * @retval true the page is mapped
     */
    bool
    lookup(uint64_t vpn, uint64_t &pfn) const
    {
        auto it = map_.find(vpn);
        if (it == map_.end())
            return false;
        pfn = it->second;
        return true;
    }

    /** Install a mapping (overwrites any existing one). */
    void map(uint64_t vpn, uint64_t pfn) { map_[vpn] = pfn; }

  private:
    std::unordered_map<uint64_t, uint64_t> map_;
};

/** The full system mapping state: all tasks plus the allocator. */
class MemoryMap
{
  public:
    /**
     * @param allocator page-placement policy (owned)
     */
    explicit MemoryMap(std::unique_ptr<PageAllocator> allocator);

    /**
     * Translate a virtual address, faulting in a frame on first touch.
     * kseg0 addresses translate directly regardless of ASID.
     */
    uint64_t translate(Asid asid, uint64_t vaddr);

    /**
     * Recolor a mapped page: hand it a fresh frame from the
     * allocator (CML-buffer remedy). The old frame is not returned
     * to the pool (the allocator tracks lifetime allocations only).
     *
     * @param old_pfn receives the previous frame
     * @param new_pfn receives the new frame
     * @retval true the page was mapped and has been recolored
     */
    bool recolor(Asid asid, uint64_t vpn, uint64_t &old_pfn,
                 uint64_t &new_pfn);

    /** Access the allocator (e.g. for policy name). */
    const PageAllocator &allocator() const { return *allocator_; }

    /**
     * First frame handed to mapped pages (128 MB). Frames below this
     * belong to the kseg0 direct-mapped region, so allocated pages
     * can never alias kernel code — matching real memory layout,
     * where the kernel's frames are not in the free pool.
     */
    static constexpr uint64_t FRAME_BASE = 1ull << 15;

  private:
    std::unique_ptr<PageAllocator> allocator_;
    std::unordered_map<Asid, PageTable> tables_;
};

} // namespace ibs

#endif // IBS_VM_ADDRESS_SPACE_H
