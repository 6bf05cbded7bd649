/**
 * @file
 * TraceMemo implementation.
 */

#include "serve/memo.h"

namespace ibs::serve {

TraceMemo::TraceMemo(uint64_t byte_budget) : budget_(byte_budget) {}

uint64_t
TraceMemo::suiteBytes(const SuiteTraces &suite)
{
    // Everything the suite retains: finished run-trace memos and
    // captured miss streams, plus a fixed per-workload overhead.
    return suite.retainedTraceBytes() + suite.count() * 256;
}

void
TraceMemo::refresh(const std::string &key, const SuiteTraces &suite)
{
    const uint64_t measured = suiteBytes(suite);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.bytes == measured)
        return;
    bytes_ += measured - it->second.bytes; // Unsigned wrap-safe.
    it->second.bytes = measured;
    evictOverBudgetLocked();
}

std::shared_ptr<const SuiteTraces>
TraceMemo::get(
    const std::string &key,
    const std::function<std::shared_ptr<const SuiteTraces>()> &build,
    bool *was_hit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (was_hit)
        *was_hit = it != entries_.end();
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        ++hits_;
        return it->second.suite;
    }
    ++misses_;
    // A throwing build leaves no entry behind, so the next request
    // for the key builds again.
    std::shared_ptr<const SuiteTraces> suite = build();
    lru_.push_front(key);
    const uint64_t bytes = suiteBytes(*suite);
    entries_.emplace(key, Entry{suite, bytes, lru_.begin()});
    bytes_ += bytes;
    evictOverBudgetLocked();
    return suite;
}

void
TraceMemo::evictOverBudgetLocked()
{
    // Evict from the cold end, but always keep at least one entry so
    // a single over-budget suite still gets reuse.
    while (bytes_ > budget_ && entries_.size() > 1) {
        auto it = entries_.find(lru_.back());
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
    }
}

TraceMemo::Stats
TraceMemo::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

} // namespace ibs::serve
