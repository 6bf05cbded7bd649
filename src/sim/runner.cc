/**
 * @file
 * Runner implementations.
 */

#include "sim/runner.h"

#include <cerrno>
#include <cstdlib>

#include "obs/log.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/collapse.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {

namespace {

/** Warn, once per workload, when its model drained after `got` of
 *  the `wanted` instructions. */
void
warnShortTrace(const std::string &name, uint64_t got, uint64_t wanted)
{
    if (got >= wanted)
        return;
    obs::logOnce(obs::LogLevel::Warn, "short-trace:" + name,
                 "workload %s drained after %llu of %llu "
                 "instructions; its trace is short",
                 name.c_str(), static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(wanted));
}

} // namespace

uint64_t
parseEnvCount(const char *name, uint64_t fallback, uint64_t min,
              uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    // strtoull silently accepts trailing garbage, wraps negative
    // input, and saturates on overflow with no error by default —
    // reject all three explicitly so a typo'd environment variable
    // cannot silently run the wrong experiment.
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || env[0] == '-' ||
        errno == ERANGE || v < min || v > max) {
        const std::string want = min == 1 && max == UINT64_MAX
            ? "a positive integer"
            : "an integer in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
        obs::log(obs::LogLevel::Warn,
                 "ignoring invalid %s=\"%s\" (want %s); using %llu",
                 name, env, want.c_str(),
                 static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

uint64_t
benchInstructions(uint64_t fallback)
{
    return parseEnvCount("IBS_BENCH_INSTR", fallback);
}

SuiteTraces::SuiteTraces(const std::vector<WorkloadSpec> &suite,
                         uint64_t instructions_per_workload)
    : requested_(instructions_per_workload), specs_(suite)
{
    flat_.reserve(suite.size());
    for (size_t i = 0; i < suite.size(); ++i)
        flat_.push_back(std::make_unique<Slot<std::vector<uint64_t>>>());
}

const std::vector<uint64_t> &
SuiteTraces::addresses(size_t i) const
{
    Slot<std::vector<uint64_t>> &slot = *flat_[i];
    std::call_once(slot.once, [&] {
        obs::ScopedTimer timer("materialize " + name(i), "workload");
        WorkloadModel model(specs_[i]);
        std::vector<uint64_t> &addrs = slot.value;
        addrs.reserve(requested_);
        TraceRecord rec;
        while (addrs.size() < requested_ && model.next(rec)) {
            if (rec.isInstr())
                addrs.push_back(rec.vaddr);
        }
        warnShortTrace(name(i), addrs.size(), requested_);
        slot.built.store(true, std::memory_order_release);
    });
    return slot.value;
}

const RunTrace &
SuiteTraces::runTrace(size_t i, uint32_t line_bytes) const
{
    Slot<RunTrace> *entry;
    {
        std::lock_guard<std::mutex> lock(runTraceMutex_);
        std::unique_ptr<Slot<RunTrace>> &slot =
            runTraces_[{i, line_bytes}];
        if (!slot)
            slot = std::make_unique<Slot<RunTrace>>();
        entry = slot.get();
    }
    // Generation runs outside the map lock; concurrent callers for
    // the same key rendezvous on the entry's once_flag, callers for
    // other keys proceed independently. Runs stream straight from
    // the workload model — the flat vector is never built here — and
    // cut exactly where compressRuns would (run_stream.h).
    std::call_once(entry->once, [&] {
        obs::ScopedTimer timer("stream " + name(i) + " line" +
                                   std::to_string(line_bytes),
                               "run_trace");
        WorkloadModel model(specs_[i]);
        entry->value = generateRunTrace(model, line_bytes, requested_);
        warnShortTrace(name(i), entry->value.instructions, requested_);
        entry->built.store(true, std::memory_order_release);
    });
    return entry->value;
}

uint64_t
SuiteTraces::retainedTraceBytes() const
{
    uint64_t bytes = 0;
    for (const auto &slot : flat_) {
        if (slot->built.load(std::memory_order_acquire))
            bytes += slot->value.size() * sizeof(uint64_t);
    }
    {
        std::lock_guard<std::mutex> lock(runTraceMutex_);
        for (const auto &kv : runTraces_) {
            if (kv.second->built.load(std::memory_order_acquire))
                bytes += kv.second->value.bytes();
        }
    }
    std::lock_guard<std::mutex> lock(missStreamMutex_);
    for (const auto &kv : missStreams_) {
        if (kv.second->built.load(std::memory_order_acquire))
            bytes += kv.second->value.bytes();
    }
    return bytes;
}

const MissStream &
SuiteTraces::missStream(size_t i, const FetchConfig &config) const
{
    // The capture depends only on the L1 side of the config (the
    // perfect L2 never feeds back): exactly what collapseKey names.
    Slot<MissStream> *entry;
    {
        std::lock_guard<std::mutex> lock(missStreamMutex_);
        std::unique_ptr<Slot<MissStream>> &slot =
            missStreams_[{i, collapseKey(config)}];
        if (!slot)
            slot = std::make_unique<Slot<MissStream>>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        obs::ScopedTimer timer("capture " + name(i) + " " +
                                   config.l1.toString(),
                               "collapse");
        FetchConfig capture = config;
        capture.perfectL2 = true;
        FetchEngine engine(capture);
        MissStream &ms = entry->value;
        ms.trace.lineBytes = capture.l1.lineBytes;
        engine.setMissCapture(&ms.trace);
        const RunTrace &runs = runTrace(i, capture.l1.lineBytes);
        for (const FetchRun &run : runs.runs)
            engine.fetchRun(run);
        engine.setMissCapture(nullptr);
        ms.trace.runs.shrink_to_fit();
        ms.runsReplayed = runs.runs.size();
        ms.l1Stats = engine.stats();
        ms.l1Accesses = engine.l1Cache().accesses();
        ms.l1Hits = engine.l1Cache().hits();
        ms.l1Evictions = engine.l1Cache().evictions();
        ms.batchedRuns = engine.batchedRuns();
        ms.batchFallbacks = engine.batchFallbacks();
        entry->built.store(true, std::memory_order_release);
    });
    return entry->value;
}

size_t
SuiteTraces::missStreamsBuilt() const
{
    std::lock_guard<std::mutex> lock(missStreamMutex_);
    return missStreams_.size();
}

size_t
SuiteTraces::runTracesBuilt() const
{
    std::lock_guard<std::mutex> lock(runTraceMutex_);
    return runTraces_.size();
}

FetchStats
SuiteTraces::runOne(size_t i, const FetchConfig &config) const
{
    FetchEngine engine(config);
    const RunTrace &runs = runTrace(i, config.l1.lineBytes);
    for (const FetchRun &run : runs.runs)
        engine.fetchRun(run);
    obs::Registry &registry = obs::Registry::global();
    if (registry.enabled()) {
        // Published per replay, not per run-trace build: the memo
        // makes builds happen once per (workload, lineBytes), which
        // would leave warm sweeps without the counter and break
        // thread-count invariance of the snapshot.
        registry.add("workload.model.runs_emitted", runs.runs.size());
        engine.publishCounters(registry);
        // Scheduling-independent histogram sample: one observation
        // per replayed cell, so the merged histogram is bit-identical
        // across IBS_THREADS like the counters above.
        registry.observe("sim.cell.instructions",
                         engine.stats().instructions);
    }
    return engine.stats();
}

FetchStats
SuiteTraces::runSuite(const FetchConfig &config) const
{
    FetchStats total;
    for (size_t i = 0; i < count(); ++i)
        total.merge(runOne(i, config));
    return total;
}

} // namespace ibs
