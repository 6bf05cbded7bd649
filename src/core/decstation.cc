/**
 * @file
 * DecstationModel implementation.
 */

#include "core/decstation.h"

namespace ibs {

void
DecstationModel::handleWrite()
{
    // Retire completed writes.
    while (!writeBuffer_.empty() && writeBuffer_.front() <= cycle_)
        writeBuffer_.pop_front();

    if (writeBuffer_.size() >= kWriteBufferDepth) {
        // Buffer full: the CPU stalls until the oldest write drains.
        const uint64_t wait = writeBuffer_.front() - cycle_;
        stats_.writeStallCycles += wait;
        cycle_ += wait;
        writeBuffer_.pop_front();
    }

    const uint64_t start = writeBuffer_.empty()
        ? cycle_ : writeBuffer_.back();
    writeBuffer_.push_back(start + kWriteDrainCycles);
}

DecstationStats
DecstationModel::run(TraceStream &stream, uint64_t max_instructions)
{
    TraceRecord rec;
    while (stats_.instructions < max_instructions &&
           stream.next(rec)) {
        switch (rec.kind) {
          case RefKind::InstrFetch:
            ++stats_.instructions;
            ++cycle_;
            if (rec.asid == 1)
                ++stats_.userInstructions;
            if (!tlb_.access(rec.asid, rec.vaddr)) {
                ++stats_.tlbMisses;
                cycle_ += DecstationStats::kTlbMissPenalty;
            }
            if (!icache_.access(rec.vaddr)) {
                ++stats_.icacheMisses;
                cycle_ += DecstationStats::kCacheMissPenalty;
            }
            break;

          case RefKind::DataRead:
            if (!tlb_.access(rec.asid, rec.vaddr)) {
                ++stats_.tlbMisses;
                cycle_ += DecstationStats::kTlbMissPenalty;
            }
            if (!dcache_.access(rec.vaddr)) {
                ++stats_.dcacheMisses;
                cycle_ += DecstationStats::kCacheMissPenalty;
            }
            break;

          case RefKind::DataWrite:
            if (!tlb_.access(rec.asid, rec.vaddr)) {
                ++stats_.tlbMisses;
                cycle_ += DecstationStats::kTlbMissPenalty;
            }
            // Write-through, no-allocate: update the D-cache if the
            // word is present, never stall for the line.
            if (dcache_.contains(rec.vaddr))
                dcache_.access(rec.vaddr);
            handleWrite();
            break;
        }
    }
    return stats_;
}

void
DecstationModel::reset()
{
    icache_.invalidateAll();
    icache_.resetStats();
    dcache_.invalidateAll();
    dcache_.resetStats();
    tlb_.flushAll();
    tlb_.resetStats();
    writeBuffer_.clear();
    cycle_ = 0;
    stats_ = DecstationStats{};
}

} // namespace ibs
