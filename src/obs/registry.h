/**
 * @file
 * Hierarchical counter/histogram registry.
 *
 * Simulation components (Cache, VictimCache, SubBlockCache,
 * StreamBuffer, FetchEngine, Tlb) publish their event counts here so
 * long runs are observable without perturbing the experiment, and
 * the serving layer (src/serve) records its request telemetry
 * through the same surface. Names follow
 * `component.instance.event` (e.g. "cache.l1.misses",
 * "serve.request.latency_us").
 *
 * Two metric classes:
 *
 *  - counters: add(name, delta); shards merge by addition;
 *  - histograms: observe(name, value); fixed power-of-two buckets
 *    (bucket k = bit_width(v) - 1 holds [2^k, 2^(k+1)), and values
 *    0 and 1 share bucket 0), values past kHistogramBuckets land in
 *    a dedicated overflow bin; shards merge by per-bucket addition.
 *
 * Concurrency model: each thread writes to its own shard; snapshots
 * merge every shard under the registry lock. Both merges are
 * commutative and associative, so for a fixed set of observations
 * the merged snapshot is bit-identical regardless of how many worker
 * threads ran it or how the scheduler assigned the work (the same
 * guarantee the sweep executor makes for FetchStats). *Simulation*
 * publishers must therefore only record values that are themselves
 * scheduling-independent; anything derived from thread count or
 * wall-clock belongs in timing/trace output or in the explicitly
 * timing-domain `serve.*` namespace, whose latency histograms are
 * recorded by the server and are exempt from the bit-identical
 * contract (the merge is still deterministic given the same
 * observations — the observations themselves are wall-clock).
 *
 * The registry is off by default. It turns on when IBS_OBS=1 or
 * IBS_OBS_TRACE is set (see obs/trace_sink.h), or programmatically
 * via setEnabled() (the sweep server does — an unobservable server
 * cannot be operated). Publishers gate on enabled() — a single
 * relaxed atomic load — so a disabled registry costs one branch per
 * *publication site* (component teardown), and nothing at all on the
 * per-fetch hot path.
 */

#ifndef IBS_OBS_REGISTRY_H
#define IBS_OBS_REGISTRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/report.h"

namespace ibs::obs {

/** Log2 buckets per histogram (exponents 0..kHistogramBuckets-1);
 *  values >= 2^kHistogramBuckets land in the overflow bin. 41
 *  buckets reach 2^41 - 1, past any microsecond latency or
 *  per-cell count the simulator records. */
constexpr size_t kHistogramBuckets = 41;

/** Merged view of one histogram across all shards. */
struct HistogramSnapshot
{
    std::array<uint64_t, kHistogramBuckets> counts{};
    uint64_t overflow = 0; ///< Observations >= 2^kHistogramBuckets.
    uint64_t sum = 0;      ///< Sum of the exact observed values.
    uint64_t count = 0;    ///< Total observations (incl. overflow).

    /**
     * Upper (inclusive) edge of the lowest *occupied* bucket whose
     * cumulative mass reaches fraction q of the total: bucket k
     * resolves to 2^(k+1)-1 (bucket 0, holding values 0 and 1,
     * resolves to 1). When the requested mass lies entirely in the
     * overflow bin — or the histogram is empty — returns UINT64_MAX
     * ("beyond the tracked range") or 0 respectively. The answer
     * is conservative: the true quantile v satisfies
     * v <= quantile(q) < 2*v, so bucket resolution bounds the error
     * to under one octave.
     */
    uint64_t quantile(double q) const;

    bool operator==(const HistogramSnapshot &o) const
    {
        return counts == o.counts && overflow == o.overflow &&
            sum == o.sum && count == o.count;
    }
};

/** Upper (inclusive) edge of the log2 bucket that would hold
 *  `value`: 1 for values 0 and 1, else 2^(bit_width(value))-1.
 *  Clients bucketize their own exact measurements with this before
 *  comparing against a histogram quantile, so agreement checks run
 *  at bucket resolution on both sides. */
uint64_t log2BucketUpperEdge(uint64_t value);

/**
 * Histograms as the sweep server's "stats" frame carries them: one
 * member per name, each {"counts":[...],"overflow":n,"sum":n,
 * "count":n} with exactly kHistogramBuckets dense counts.
 */
Json histogramsToJson(
    const std::map<std::string, HistogramSnapshot> &histograms);

/**
 * Inverse of histogramsToJson, exact for every uint64 value. The
 * tools decode frames read off the network, so this validates:
 * throws std::invalid_argument, naming the histogram, unless each
 * member is an object with exactly kHistogramBuckets counts, every
 * number is a non-negative integer, and the counts plus overflow add
 * up to count.
 */
std::map<std::string, HistogramSnapshot>
histogramsFromJson(const Json &json);

/** Process-wide metric registry with per-thread shards. */
class Registry
{
  public:
    /** The process-wide instance (components publish here). */
    static Registry &global();

    /** Publication gate; relaxed load, safe from any thread. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Flip the gate (environment init, tests). */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Add `delta` to counter `name` in this thread's shard. */
    void add(const std::string &name, uint64_t delta);

    /** Record one observation into histogram `name` in this
     *  thread's shard (log2 bucket; see kHistogramBuckets). */
    void observe(const std::string &name, uint64_t value);

    /**
     * Deterministic merged view of the counters, summed across all
     * shards, keys in lexicographic order. Histograms never appear
     * here; see snapshotHistograms().
     */
    std::map<std::string, uint64_t> snapshot() const;

    /** Deterministic merged histograms (per-bucket sums), keys in
     *  lexicographic order. */
    std::map<std::string, HistogramSnapshot>
    snapshotHistograms() const;

    /** snapshot() as a flat all-numeric JSON object, keys sorted.
     *  Histograms are not in it; see snapshotHistograms(). */
    Json snapshotJson() const;

    /** Zero every shard — counters and histograms (tests). Thread
     *  shards stay registered, so concurrent publishers are safe. */
    void reset();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

  private:
    Registry();

    /** Per-shard histogram state; merged by element-wise addition. */
    struct HistShard
    {
        std::array<uint64_t, kHistogramBuckets> counts{};
        uint64_t overflow = 0;
        uint64_t sum = 0;
        uint64_t count = 0;
    };

    struct Shard
    {
        std::mutex mutex;
        std::map<std::string, uint64_t> counters;
        std::map<std::string, HistShard> histograms;
    };

    /** This thread's shard, registered on first use. */
    Shard &localShard();

    mutable std::mutex mutex_; ///< Guards shards_ (the list itself).
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> enabled_{false};
};

} // namespace ibs::obs

#endif // IBS_OBS_REGISTRY_H
