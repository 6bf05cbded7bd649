/**
 * @file
 * Memory-interface timing arithmetic.
 *
 * The paper characterizes every level of the hierarchy by two numbers
 * (Table 5): *latency to first word* and *bandwidth in bytes/cycle*.
 * "For example, a system with a 12-cycle latency and a bandwidth of
 * 8 bytes/cycle requires 12 cycles to return the first 8 bytes and
 * delivers 8 additional bytes in each subsequent cycle. Filling a
 * 32-byte line would require 12+1+1+1 = 15 cycles."
 *
 * MemoryTiming encodes exactly that arithmetic and is shared by every
 * experiment so the pricing cannot drift between benches.
 */

#ifndef IBS_MEM_TIMING_H
#define IBS_MEM_TIMING_H

#include <cassert>
#include <cstdint>
#include <string>

namespace ibs {

/** Latency/bandwidth description of one memory interface. */
struct MemoryTiming
{
    uint32_t latencyCycles = 12;  ///< Cycles to the first transfer.
    uint32_t bytesPerCycle = 8;   ///< Transfer width per cycle after.

    /** Number of transfer beats needed for `bytes`. */
    uint64_t
    beats(uint64_t bytes) const
    {
        assert(bytesPerCycle > 0);
        return (bytes + bytesPerCycle - 1) / bytesPerCycle;
    }

    /**
     * Total cycles from request to the last byte of a `bytes`-sized
     * fill (the Table 5 example: 12 + 1 + 1 + 1 = 15 for 32 bytes at
     * 8 B/cycle).
     */
    uint64_t
    fillCycles(uint64_t bytes) const
    {
        const uint64_t n = beats(bytes);
        return latencyCycles + (n > 0 ? n - 1 : 0);
    }

    /**
     * Cycles from request until the word at `byte_offset` within the
     * fill has arrived, with data streaming in order from offset 0.
     * Used by the bypass-buffer model, which resumes the processor as
     * soon as the missing word returns.
     */
    uint64_t
    cyclesToWord(uint64_t byte_offset) const
    {
        return latencyCycles + byte_offset / bytesPerCycle;
    }

    std::string toString() const;
};

/**
 * A pipelined port: accepts one line request per cycle; each request
 * completes a fixed latency later (§5.2 "Pipelining"). Requests issued
 * in the same cycle serialize by one cycle each.
 */
class PipelinedPort
{
  public:
    explicit PipelinedPort(MemoryTiming timing)
        : timing_(timing)
    {}

    const MemoryTiming &timing() const { return timing_; }

    /**
     * Issue a one-beat line request at `cycle` (or the next free issue
     * slot).
     *
     * @param cycle requested issue cycle
     * @param issued_at receives the actual issue cycle
     * @return arrival cycle of the data
     */
    uint64_t
    request(uint64_t cycle, uint64_t *issued_at = nullptr)
    {
        uint64_t issue = cycle;
        if (hasIssued_ && issue <= lastIssue_)
            issue = lastIssue_ + 1;
        lastIssue_ = issue;
        hasIssued_ = true;
        ++requests_;
        if (issued_at)
            *issued_at = issue;
        return issue + timing_.latencyCycles;
    }

    uint64_t requests() const { return requests_; }

    /**
     * Cancel issue slots reserved beyond `cycle` — prefetch requests
     * the control logic had queued but not yet issued. A demand miss
     * preempts them (§5.2: "prefetching is cancelled and a new miss
     * request is issued").
     */
    void
    cancelPending(uint64_t cycle)
    {
        if (hasIssued_ && lastIssue_ >= cycle)
            lastIssue_ = cycle > 0 ? cycle - 1 : 0;
    }

    void
    reset()
    {
        lastIssue_ = 0;
        hasIssued_ = false;
        requests_ = 0;
    }

  private:
    MemoryTiming timing_;
    uint64_t lastIssue_ = 0;
    bool hasIssued_ = false;
    uint64_t requests_ = 0;
};

} // namespace ibs

#endif // IBS_MEM_TIMING_H
