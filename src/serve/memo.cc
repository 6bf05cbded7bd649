/**
 * @file
 * TraceMemo implementation.
 */

#include "serve/memo.h"

#include "obs/log.h"

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
    // Skip evicted keys and entries whose build has not finished
    // (bytes == 0 marks those for the eviction walk).
    if (it == entries_.end() || it->second.bytes == 0 ||
        it->second.bytes == measured) {
        return;
    }
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
    std::shared_future<std::shared_ptr<const SuiteTraces>> future;
    std::promise<std::shared_ptr<const SuiteTraces>> promise;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            ++hits_;
            if (was_hit)
                *was_hit = true;
            future = it->second.future;
        } else {
            lru_.push_front(key);
            Entry entry;
            entry.future = promise.get_future().share();
            entry.lru = lru_.begin();
            future = entry.future;
            entries_.emplace(key, std::move(entry));
            ++misses_;
            builder = true;
            if (was_hit)
                *was_hit = false;
        }
    }

    if (!builder)
        return future.get(); // Rethrows a failed build to waiters.

    std::shared_ptr<const SuiteTraces> suite;
    try {
        suite = build();
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            lru_.erase(it->second.lru);
            entries_.erase(it);
        }
        throw;
    }
    promise.set_value(suite);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.bytes = suiteBytes(*suite);
            bytes_ += it->second.bytes;
            evictOverBudgetLocked();
        }
    }
    return suite;
}

void
TraceMemo::evictOverBudgetLocked()
{
    // Walk from the cold end; skip entries still building (their
    // bytes are unknown) and always keep at least one entry so a
    // single over-budget suite still gets reuse.
    auto lru_it = lru_.end();
    while (bytes_ > budget_ && entries_.size() > 1 &&
           lru_it != lru_.begin()) {
        --lru_it;
        auto it = entries_.find(*lru_it);
        if (it == entries_.end() || it->second.bytes == 0)
            continue;
        obs::log(obs::LogLevel::Info,
                 "serve memo: evicting %s (%llu bytes)",
                 lru_it->c_str(),
                 static_cast<unsigned long long>(it->second.bytes));
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_it = lru_.erase(lru_it);
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
