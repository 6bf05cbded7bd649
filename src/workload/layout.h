/**
 * @file
 * Code layout: procedure placement within a component's text segment.
 *
 * SPEC-style components pack procedures densely; "bloated" components
 * scatter them with page-granular gaps, the layout signature of
 * dynamically-linked libraries, emulation layers and separately-loaded
 * modules (§4.2 of the paper). Scatter converts temporal misses into
 * additional direct-mapped *conflict* misses — the component Figure 1
 * shows growing in IBS.
 */

#ifndef IBS_WORKLOAD_LAYOUT_H
#define IBS_WORKLOAD_LAYOUT_H

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "workload/params.h"

namespace ibs {

/** One placed procedure. */
struct Procedure
{
    uint64_t start = 0; ///< First instruction address (4-aligned).
    uint32_t size = 0;  ///< Bytes of code.
};

/** Placed procedures plus their popularity ordering. */
class CodeLayout
{
  public:
    /**
     * Build the layout deterministically from the component parameters.
     *
     * @param params component description
     * @param rng layout randomness (sizes, gaps, popularity shuffle)
     */
    CodeLayout(const ComponentParams &params, Rng &rng);

    /** Number of procedures. */
    size_t size() const { return procs_.size(); }

    /** Procedure by placement index (address order). */
    const Procedure &byIndex(size_t index) const { return procs_[index]; }

    /** Placement index of a *popularity rank* (0 = hottest). */
    size_t indexOf(size_t rank) const { return rankToIndex_[rank]; }

    /** Total bytes of code (excluding gaps). */
    uint64_t codeBytes() const { return codeBytes_; }

  private:
    std::vector<Procedure> procs_;     ///< In address order.
    std::vector<uint32_t> rankToIndex_;
    uint64_t codeBytes_ = 0;
};

} // namespace ibs

#endif // IBS_WORKLOAD_LAYOUT_H
