/**
 * @file
 * Stream buffer (Jouppi) state.
 *
 * §5.2 "Pipelining": a fully-associative, dual-ported memory of N
 * prefetched lines, looked up in parallel with the L1 I-cache. Entries
 * carry the cycle at which their data arrives from the pipelined L2;
 * a lookup can therefore hit on an in-flight line (the fetch engine
 * stalls until the arrival cycle). Lines move to the I-cache only when
 * the processor uses them.
 *
 * This class is pure state — issue/cancel policy lives in
 * core/FetchEngine, which implements the paper's control rules.
 */

#ifndef IBS_CACHE_STREAM_BUFFER_H
#define IBS_CACHE_STREAM_BUFFER_H

#include <cstdint>
#include <deque>
#include <string>

#include "obs/registry.h"

namespace ibs {

/** One prefetched (possibly in-flight) line. */
struct StreamEntry
{
    uint64_t lineAddr = 0;     ///< Line-aligned address.
    uint64_t arrivalCycle = 0; ///< Cycle the data is usable.
};

/** FIFO of at most `capacity` prefetched lines, associatively probed. */
class StreamBuffer
{
  public:
    explicit StreamBuffer(size_t capacity)
        : capacity_(capacity)
    {}

    size_t capacity() const { return capacity_; }
    size_t size() const { return entries_.size(); }
    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }

    /**
     * Associative probe.
     *
     * @param line_addr line-aligned address
     * @param entry receives the matching entry
     * @retval true found (data may still be in flight)
     */
    bool
    lookup(uint64_t line_addr, StreamEntry &entry) const
    {
        for (const auto &e : entries_) {
            if (e.lineAddr == line_addr) {
                entry = e;
                return true;
            }
        }
        return false;
    }

    /**
     * Insert a prefetched line, evicting the oldest entry when full.
     * Re-prefetching a resident line refreshes its arrival cycle in
     * place — it must not consume a second capacity slot, or the
     * duplicate would survive the remove() that follows first use.
     * Capacity 0 buffers ignore inserts.
     */
    void
    insert(uint64_t line_addr, uint64_t arrival_cycle)
    {
        if (capacity_ == 0)
            return;
        for (auto &e : entries_) {
            if (e.lineAddr == line_addr) {
                e.arrivalCycle = arrival_cycle;
                return;
            }
        }
        if (entries_.size() >= capacity_) {
            entries_.pop_front();
            ++evictions_;
        }
        entries_.push_back(StreamEntry{line_addr, arrival_cycle});
        ++inserts_;
    }

    /** Remove a line (after it moves to the I-cache). */
    void
    remove(uint64_t line_addr)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->lineAddr == line_addr) {
                entries_.erase(it);
                return;
            }
        }
    }

    /**
     * Drop entries that have not yet arrived by `cycle` — the paper's
     * cancellation of outstanding prefetches when a new miss preempts
     * the sequence.
     *
     * @return number of entries cancelled
     */
    size_t
    cancelInFlight(uint64_t cycle)
    {
        size_t erased = 0;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->arrivalCycle > cycle) {
                it = entries_.erase(it);
                ++erased;
            } else {
                ++it;
            }
        }
        cancelled_ += erased;
        return erased;
    }

    uint64_t inserts() const { return inserts_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t cancelled() const { return cancelled_; }

    /**
     * Publish buffer activity to the observability registry under
     * "stream_buffer.<instance>.<event>". Caller gates on
     * Registry::enabled().
     */
    void
    publishCounters(obs::Registry &registry,
                    const std::string &instance) const
    {
        const std::string prefix = "stream_buffer." + instance + ".";
        registry.add(prefix + "inserts", inserts_);
        registry.add(prefix + "evictions", evictions_);
        registry.add(prefix + "cancelled", cancelled_);
    }

  private:
    size_t capacity_;
    std::deque<StreamEntry> entries_;
    uint64_t inserts_ = 0;
    uint64_t evictions_ = 0;
    uint64_t cancelled_ = 0;
};

} // namespace ibs

#endif // IBS_CACHE_STREAM_BUFFER_H
