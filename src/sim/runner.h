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
#include <optional>
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
 * Captured result of running one workload through a blocking L1
 * front end backed by a perfect L2: its instruction and miss counts,
 * the run-encoded demand-miss stream when a real L2 will consume it,
 * and everything else needed to derive a full per-cell result for
 * any fill timing and L2 sharing that front end (sim/collapse.h).
 * The stored counters mirror exactly what
 * FetchEngine::publishCounters would have published for the L1
 * side, so a derived cell publishes what a full FetchEngine replay
 * of it would have.
 */
struct MissStream
{
    MissTrace trace; ///< Ordered demand-miss line addresses; empty
                     ///< for a counts-only (no real L2) capture.
    uint64_t instructions = 0; ///< Capture-run totals; the timing
    uint64_t l1Misses = 0;     ///< they imply is the cell's own.
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
 * Parse `text` as a decimal integer in [min, max] — by default any
 * positive integer. Anything but digits (empty text, a leading blank
 * or sign, trailing garbage), overflow and out-of-range values give
 * nullopt: strtoull alone would accept "45x" as 45 and wrap "-1" to
 * 2^64 - 1.
 */
std::optional<uint64_t> parseCount(const char *text, uint64_t min = 1,
                                   uint64_t max = UINT64_MAX);

/**
 * parseCount of environment variable `name` — by default any positive
 * integer; unset or empty gives `fallback`. A rejected value is
 * reported with a warning on stderr and `fallback` is returned.
 */
uint64_t parseEnvCount(const char *name, uint64_t fallback,
                       uint64_t min = 1, uint64_t max = UINT64_MAX);

/** Instructions per workload used by benches unless overridden by
 *  the IBS_BENCH_INSTR environment variable. */
uint64_t benchInstructions(uint64_t fallback = 1'500'000);

/**
 * Instruction traces for a suite of workloads, held run-compressed.
 *
 * Construction generates nothing. runTrace(i, lineBytes) builds a
 * run-length trace (workload/run_stream.h) on first request,
 * memoized per (workload, lineBytes): the encoding depends only on
 * the L1 line size, so every sweep cell with that line size shares
 * it read-only. The first line size requested for workload `i`
 * streams it from its model; every later one is cut (cutRunTrace)
 * from the coarsest trace of `i` already built, so a suite runs each
 * model once (a request that arrives while `i` is being generated
 * waits for it) and retains no trace beyond the memo entries.
 * runOne and the miss-stream capture (missStream) drive
 * FetchEngine::fetchRun over that trace; it is the only replay path
 * sweeps and the server use. Run traces are the only trace form: a
 * driver that needs one reference per instruction walks a run's
 * `count` addresses itself.
 *
 * Thread-safety: run traces and miss streams are each built exactly
 * once behind a std::once_flag and are immutable afterwards, so any
 * number of threads may call the const members (runOne, runTrace,
 * missStream, ...) concurrently on one shared instance; a caller that
 * needs an entry another thread is still building waits on that
 * entry's once_flag. sim/sweep.h relies on this to fan a config grid
 * out across workers.
 */
class SuiteTraces
{
  public:
    /**
     * @param suite workload specs, instruction streams only: a spec
     *        with data references enabled has no run trace, so
     *        runTrace and runOne throw std::invalid_argument for it
     *        (workload/run_stream.h)
     * @param instructions_per_workload trace length for each
     */
    SuiteTraces(const std::vector<WorkloadSpec> &suite,
                uint64_t instructions_per_workload);

    size_t count() const { return specs_.size(); }
    const std::string &name(size_t i) const { return specs_[i].name; }

    /**
     * Bytes of trace data currently retained: finished run-trace
     * memo entries plus captured miss streams (missStream). This is
     * what a byte-budgeted store (serve/memo.h) charges for the
     * suite.
     */
    uint64_t retainedTraceBytes() const;

    /**
     * Run-length encoding of workload `i` at `line_bytes` (lazy,
     * built once — generated, or cut from another line size of `i` —
     * then shared read-only across callers; see the class comment).
     * The returned reference stays valid for the lifetime of this
     * SuiteTraces.
     */
    const RunTrace &runTrace(size_t i, uint32_t line_bytes) const;

    /** Number of distinct (workload, lineBytes) run-traces built so
     *  far (diagnostics: how well the memo amortizes). */
    size_t runTracesBuilt() const;

    /**
     * Miss stream of workload `i` under `config`'s L1 front end:
     * the capture run replays the workload through a FetchEngine
     * with perfectL2 forced on (L1-only, so one capture serves every
     * fill timing and L2 variant) and counts its instructions and
     * misses. Only when `config` has a real L2 does it also record
     * each L1 miss's line address (trace/miss_trace.h); a capture
     * without one keeps counts only. Memoized per (workload,
     * collapseKey: L1 geometry + prefetch depth + whether a real L2
     * consumes the misses) with the same build-exactly-once
     * discipline as runTrace — warm server sweeps skip the L1 run
     * entirely — and charged by retainedTraceBytes() so serve/memo.h
     * budgets it. runOne derives every collapseEligible cell from
     * it. The returned reference stays valid for the lifetime of
     * this SuiteTraces.
     */
    const MissStream &missStream(size_t i,
                                 const FetchConfig &config) const;

    /** Number of distinct miss streams captured so far. */
    size_t missStreamsBuilt() const;

    /**
     * The (config, workload `i`) cell: the one function every sweep
     * cell, bench and server request goes through. A
     * collapseEligible (blocking-fill) config is derived from the
     * memoized capture of its L1 front end, plus one Cache replay of
     * its L2 when it has a real one (sim/collapse.h); every other
     * config replays the workload's run trace through a fresh
     * FetchEngine. Both paths publish the same registry counters,
     * and both results pass FetchStats::check (which throws
     * std::logic_error otherwise).
     */
    FetchStats runOne(size_t i, const FetchConfig &config) const;

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

    // One flag per workload, guarding its generation from the model:
    // the first runTrace of a workload generates under it, and every
    // other line size waits for it and is then cut.
    mutable std::vector<std::once_flag> generated_;

    // (workload, lineBytes) -> lazily built run trace. unique_ptr
    // keeps entry addresses stable across map rebalancing (once_flag
    // and atomic are immovable), so the mutex only guards the map
    // itself, never a build in progress.
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
