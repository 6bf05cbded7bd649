/**
 * @file
 * Warm-state store of the sweep server: a byte-budgeted LRU of
 * materialized SuiteTraces.
 *
 * Generating a suite's run traces (the workload random walk)
 * dominates a request's cost; replay through a FetchEngine is cheap. The server therefore keys each distinct
 * (suite, workload subset, instruction count) on its first request
 * and hands every later request the same immutable SuiteTraces —
 * including the run-length compressed replay memos it accumulates —
 * so a warm request pays only the replay.
 *
 * Entries are shared_ptr<const SuiteTraces>: eviction drops the
 * store's reference while any in-flight request keeps its own, so
 * trimming the budget can never pull a trace out from under a
 * running sweep. A key's suite is built under the store's lock, so
 * concurrent first requests for one key build it exactly once; that
 * is brief, because SuiteTraces' constructor generates nothing (the
 * first cell to replay a workload generates it). A failed build
 * stores nothing, so the next request retries instead of caching
 * the error.
 */

#ifndef IBS_SERVE_MEMO_H
#define IBS_SERVE_MEMO_H

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/runner.h"

namespace ibs::serve {

/** Keyed LRU of shared immutable trace suites under a byte budget. */
class TraceMemo
{
  public:
    /** @param byte_budget approximate retained-trace bytes; at least
     *         one entry is always kept regardless */
    explicit TraceMemo(uint64_t byte_budget);

    /** Occupancy and effectiveness counters. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t bytes = 0;
        uint64_t entries = 0;
    };

    /**
     * The suite for `key`, building it with `build` on first use.
     * `build` runs under the store's lock, so it must be cheap (a
     * SuiteTraces constructor is: it generates lazily); a request
     * for another key waits for it. Its exception propagates to the
     * caller and leaves no entry.
     *
     * @param was_hit set to whether the entry already existed
     */
    std::shared_ptr<const SuiteTraces>
    get(const std::string &key,
        const std::function<std::shared_ptr<const SuiteTraces>()>
            &build,
        bool *was_hit = nullptr);

    Stats stats() const;

    uint64_t budgetBytes() const { return budget_; }

    /**
     * Re-measure `key`'s entry against the suite's current retained
     * bytes and evict if the growth pushed the store over budget.
     * A suite's footprint is its run-trace memos and the L1 miss
     * streams that derived L2 cells retain (sim/collapse.h), and
     * both accrue *after* its build finishes, lazily, as sweep cells
     * request new line sizes or capture a new L1 front end; so the
     * server calls this after each sweep to keep the budget honest.
     * No-op for unknown (evicted) keys.
     */
    void refresh(const std::string &key, const SuiteTraces &suite);

    /** Approximate retained bytes of one suite: finished run-trace
     *  memos and captured miss streams
     *  (SuiteTraces::retainedTraceBytes) plus a fixed per-workload
     *  overhead. */
    static uint64_t suiteBytes(const SuiteTraces &suite);

  private:
    void evictOverBudgetLocked();

    struct Entry
    {
        std::shared_ptr<const SuiteTraces> suite;
        uint64_t bytes = 0;
        std::list<std::string>::iterator lru;
    };

    const uint64_t budget_;
    mutable std::mutex mutex_;
    std::list<std::string> lru_; ///< Front = most recently used.
    std::map<std::string, Entry> entries_;
    uint64_t bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace ibs::serve

#endif // IBS_SERVE_MEMO_H
