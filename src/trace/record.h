/**
 * @file
 * Address-trace record definition.
 *
 * The original IBS traces captured every memory reference made by a
 * DECstation 3100 — user and kernel, instruction and data — via the
 * Monster logic analyzer. A record here carries the same information:
 * reference kind, virtual address, and the address-space (task) that
 * issued it. ASIDs let physically-indexed cache simulations apply a
 * per-task page mapping, and let analyses attribute misses to workload
 * components (user / kernel / BSD server / X server) as in Table 4.
 */

#ifndef IBS_TRACE_RECORD_H
#define IBS_TRACE_RECORD_H

#include <cstdint>

namespace ibs {

/** Kind of memory reference. */
enum class RefKind : uint8_t
{
    InstrFetch = 0, ///< Instruction fetch (4-byte MIPS instruction).
    DataRead = 1,   ///< Data load.
    DataWrite = 2,  ///< Data store.
};

/** Address-space identifier; kernel references use KERNEL_ASID. */
using Asid = uint16_t;

/** Conventional ASID for kernel-mode references. */
inline constexpr Asid KERNEL_ASID = 0;

/** One memory reference. */
struct TraceRecord
{
    uint64_t vaddr = 0;              ///< Virtual byte address.
    Asid asid = KERNEL_ASID;         ///< Issuing address space.
    RefKind kind = RefKind::InstrFetch;

    bool isInstr() const { return kind == RefKind::InstrFetch; }
    bool isData() const { return kind != RefKind::InstrFetch; }
    bool isWrite() const { return kind == RefKind::DataWrite; }

    bool
    operator==(const TraceRecord &o) const
    {
        return vaddr == o.vaddr && asid == o.asid && kind == o.kind;
    }
};

} // namespace ibs

#endif // IBS_TRACE_RECORD_H
