/**
 * @file
 * Experiment runners: glue between workloads, engines and benches.
 *
 * SuiteTraces generates each workload's instruction stream once
 * (the expensive part) and then replays it under many fetch
 * configurations — the pattern every parameter-sweep bench uses.
 * Suite-average statistics weight every workload equally, as the
 * paper's suite averages do.
 */

#ifndef IBS_SIM_RUNNER_H
#define IBS_SIM_RUNNER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/fetch_config.h"
#include "core/fetch_engine.h"
#include "trace/miss_trace.h"
#include "trace/run_trace.h"
#include "workload/ibs.h"

namespace ibs {

/**
 * Captured result of running one workload through an L1 front end
 * backed by a perfect L2: the run-encoded L1-refill reference stream
 * plus everything needed to derive a full per-cell result for any
 * L2 variant sharing that front end (sim/collapse.h). The stored
 * counters mirror exactly what FetchEngine::publishCounters would
 * have published for the L1 side, so derived cells can synthesize a
 * registry publication bit-identical to runOne's.
 */
struct MissStream
{
    MissTrace trace;   ///< Ordered L1-miss line addresses.
    FetchStats l1Stats; ///< Capture-run stats (perfect-L2 totals).
    uint64_t l1Accesses = 0; ///< L1 cache counters of the capture run.
    uint64_t l1Hits = 0;
    uint64_t l1Evictions = 0;
    uint64_t batchedRuns = 0;    ///< fetchRun path counters; L1-only
    uint64_t batchFallbacks = 0; ///< decisions, so variant-invariant.
    uint64_t runsReplayed = 0;   ///< Runs fed to the capture engine.

    /** Retained heap bytes (what serve/memo.h charges). */
    uint64_t
    bytes() const
    {
        return sizeof(MissStream) + trace.bytes();
    }
};

/**
 * Parse an integer in [min, max] — by default any positive integer —
 * from environment variable `name`; unset or empty gives `fallback`.
 * Malformed values (trailing garbage, sign, overflow, out of range)
 * are rejected with a warning on stderr and `fallback` is returned.
 */
uint64_t parseEnvCount(const char *name, uint64_t fallback,
                       uint64_t min = 1, uint64_t max = UINT64_MAX);

/** Instructions per workload used by benches unless overridden by
 *  the IBS_BENCH_INSTR environment variable. */
uint64_t benchInstructions(uint64_t fallback = 1'500'000);

/**
 * Instruction traces for a suite of workloads, held run-compressed.
 *
 * Construction generates nothing. The first runTrace(i, lineBytes)
 * call streams workload `i` from its model straight into a
 * run-length trace (workload/run_stream.h), memoized per
 * (workload, lineBytes): the encoding depends only on the L1 line
 * size, so every sweep cell with that line size shares it
 * read-only. runOne and the collapse capture (missStream) drive
 * FetchEngine::fetchRun over that trace; it is the only replay path
 * sweeps and the server use. The flat 8-bytes-per-instruction
 * address vector is built only for the benches that read flat
 * traces (addresses), lazily, once.
 *
 * Thread-safety: flat traces, run traces and miss streams are each
 * built exactly once behind a std::once_flag and are immutable
 * afterwards, so any number of threads may call the const members
 * (runOne, runSuite, addresses, runTrace, ...) concurrently on one
 * shared instance. sim/sweep.h relies on this to fan a config grid
 * out across workers.
 */
class SuiteTraces
{
  public:
    /**
     * @param suite workload specs (instruction streams only)
     * @param instructions_per_workload trace length for each
     */
    SuiteTraces(const std::vector<WorkloadSpec> &suite,
                uint64_t instructions_per_workload);

    size_t count() const { return specs_.size(); }
    const std::string &name(size_t i) const { return specs_[i].name; }

    /**
     * Instruction addresses of workload `i`, generated on the first
     * call (callers that only replay through runOne/runTrace never
     * pay for it). The returned reference stays valid for the
     * lifetime of this SuiteTraces.
     */
    const std::vector<uint64_t> &addresses(size_t i) const;

    /**
     * Trace length of workload `i`: the requested length, or the
     * flat trace's actual length once addresses(i) has built it
     * (shorter only when the workload model drained early, which is
     * warned once on stderr; the models never do in practice).
     */
    uint64_t length(size_t i) const
    {
        return flat_[i]->built.load(std::memory_order_acquire)
            ? flat_[i]->value.size()
            : requested_;
    }

    /**
     * Bytes of trace data currently retained: flat address vectors
     * actually built plus finished run-trace memo entries plus
     * captured miss streams (missStream). This is what a
     * byte-budgeted store (serve/memo.h) charges for the suite.
     */
    uint64_t retainedTraceBytes() const;

    /**
     * Run-length encoding of workload `i` at `line_bytes` (lazy,
     * built once, then shared read-only across callers — see the
     * class comment). The returned reference stays valid for the
     * lifetime of this SuiteTraces.
     */
    const RunTrace &runTrace(size_t i, uint32_t line_bytes) const;

    /** Number of distinct (workload, lineBytes) run-traces built so
     *  far (diagnostics: how well the memo amortizes). */
    size_t runTracesBuilt() const;

    /**
     * Miss stream of workload `i` under `config`'s L1 front end:
     * the capture run replays the workload through a FetchEngine
     * with perfectL2 forced on (L1-only, so one capture serves every
     * L2 variant) and records each L1 miss's line address
     * (trace/miss_trace.h). Memoized per (workload, collapseKey:
     * L1 geometry + L1 fill timing) with the same build-exactly-once
     * discipline as runTrace — warm server sweeps skip the L1 run
     * entirely — and charged by retainedTraceBytes() so serve/memo.h
     * budgets it.
     * Only sim/collapse.h should need this. The returned reference
     * stays valid for the lifetime of this SuiteTraces.
     */
    const MissStream &missStream(size_t i,
                                 const FetchConfig &config) const;

    /** Number of distinct miss streams captured so far. */
    size_t missStreamsBuilt() const;

    /** Run one workload's trace through a configuration. */
    FetchStats runOne(size_t i, const FetchConfig &config) const;

    /** Run the whole suite and merge (equal-weight average). */
    FetchStats runSuite(const FetchConfig &config) const;

  private:
    /** Memo slot: call_once gives build-exactly-once semantics
     *  without holding a map mutex during the build. `built` lets
     *  byte accounting skip entries still under construction. */
    template <typename T>
    struct Slot
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        T value;
    };

    uint64_t requested_ = 0;
    std::vector<WorkloadSpec> specs_;
    // One lazily built flat trace per workload; unique_ptr because
    // once_flag and atomic are immovable.
    std::vector<std::unique_ptr<Slot<std::vector<uint64_t>>>> flat_;

    // (workload, lineBytes) -> lazily built run trace. unique_ptr
    // keeps entry addresses stable across map rebalancing, so the
    // mutex only guards the map itself, never a build in progress.
    mutable std::mutex runTraceMutex_;
    mutable std::map<std::pair<size_t, uint32_t>,
                     std::unique_ptr<Slot<RunTrace>>>
        runTraces_;

    // (workload, collapseKey) -> lazily captured miss stream; same
    // stable-address + once_flag discipline as runTraces_.
    mutable std::mutex missStreamMutex_;
    mutable std::map<std::pair<size_t, std::string>,
                     std::unique_ptr<Slot<MissStream>>>
        missStreams_;
};

} // namespace ibs

#endif // IBS_SIM_RUNNER_H
