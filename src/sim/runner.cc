/**
 * @file
 * Runner implementations.
 */

#include "sim/runner.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "obs/log.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "sim/collapse.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {

std::optional<uint64_t>
parseCount(const char *text, uint64_t min, uint64_t max)
{
    // strtoull silently skips leading blanks, accepts a sign (and
    // wraps negative input), ignores trailing garbage, and saturates
    // on overflow with no error by default — reject all of them
    // explicitly so a typo cannot silently run the wrong experiment.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < min || v > max)
        return std::nullopt;
    return v;
}

uint64_t
parseEnvCount(const char *name, uint64_t fallback, uint64_t min,
              uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    if (const std::optional<uint64_t> v = parseCount(env, min, max))
        return *v;
    const std::string want = min == 1 && max == UINT64_MAX
        ? "a positive integer"
        : "an integer in [" + std::to_string(min) + ", " +
            std::to_string(max) + "]";
    obs::warn("ignoring invalid %s=\"%s\" (want %s); using %llu", name,
              env, want.c_str(), static_cast<unsigned long long>(fallback));
    return fallback;
}

uint64_t
benchInstructions(uint64_t fallback)
{
    return parseEnvCount("IBS_BENCH_INSTR", fallback);
}

SuiteTraces::SuiteTraces(const std::vector<WorkloadSpec> &suite,
                         uint64_t instructions_per_workload)
    : requested_(instructions_per_workload), specs_(suite),
      generated_(suite.size())
{}

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
    // The build runs outside the map lock; concurrent callers for
    // the same key rendezvous on the entry's once_flag, callers for
    // other keys proceed independently.
    std::call_once(entry->once, [&] {
        // The first line size requested for workload i streams it
        // from its model. A request for another line size waits for
        // that generation rather than starting a second one.
        std::call_once(generated_[i], [&] {
            obs::ScopedTimer timer("stream " + name(i) + " line" +
                                       std::to_string(line_bytes),
                                   "run_trace");
            WorkloadModel model(specs_[i]);
            entry->value =
                generateRunTrace(model, line_bytes, requested_);
            // Built before the flag completes: a request waiting on
            // the flag cuts from this trace.
            entry->built.store(true, std::memory_order_release);
        });
        if (entry->built.load(std::memory_order_relaxed))
            return; // This request generated workload i.
        // Every built trace of workload i holds its whole instruction
        // sequence, so cut this line size from the coarsest one
        // (fewest runs; the map orders a workload's entries by line
        // size). The generation above is built, so one exists.
        const RunTrace *source = nullptr;
        {
            std::lock_guard<std::mutex> lock(runTraceMutex_);
            for (auto it = runTraces_.lower_bound({i, 0});
                 it != runTraces_.end() && it->first.first == i; ++it) {
                if (it->second->built.load(std::memory_order_acquire))
                    source = &it->second->value;
            }
        }
        obs::ScopedTimer timer("cut " + name(i) + " line" +
                                   std::to_string(line_bytes) +
                                   " from line" +
                                   std::to_string(source->lineBytes),
                               "run_trace");
        entry->value = cutRunTrace(*source, line_bytes);
        entry->built.store(true, std::memory_order_release);
    });
    return entry->value;
}

uint64_t
SuiteTraces::retainedTraceBytes() const
{
    uint64_t bytes = 0;
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
    // perfect L2 and a blocking fill's timing never feed back):
    // exactly what collapseKey names.
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
                                   collapseKey(config),
                               "collapse");
        FetchConfig capture = config;
        capture.perfectL2 = true;
        FetchEngine engine(capture);
        MissStream &ms = entry->value;
        // Only a real L2 reads the miss order; the other cells of
        // this key are priced from the counts.
        if (config.realL2()) {
            ms.trace.lineBytes = capture.l1.lineBytes;
            engine.setMissCapture(&ms.trace);
        }
        const RunTrace &runs = runTrace(i, capture.l1.lineBytes);
        for (const FetchRun &run : runs.runs)
            engine.fetchRun(run);
        engine.setMissCapture(nullptr);
        ms.trace.runs.shrink_to_fit();
        ms.runsReplayed = runs.runs.size();
        ms.instructions = engine.stats().instructions;
        ms.l1Misses = engine.stats().l1Misses;
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
    FetchStats stats;
    if (collapseEligible(config)) {
        // The memoized capture may have been built for another config
        // with this key, so validate this one here; FetchEngine
        // validates on the replay path below.
        config.validate();
        stats = deriveCell(missStream(i, config), config);
    } else {
        FetchEngine engine(config);
        const RunTrace &runs = runTrace(i, config.l1.lineBytes);
        for (const FetchRun &run : runs.runs)
            engine.fetchRun(run);
        stats = engine.stats();
        obs::Registry &registry = obs::Registry::global();
        if (registry.enabled()) {
            // Published per replay, not per run-trace build: the memo
            // makes builds happen once per (workload, lineBytes),
            // which would leave warm sweeps without the counter and
            // break thread-count invariance of the snapshot.
            registry.add("workload.model.runs_emitted",
                         runs.runs.size());
            engine.publishCounters(registry);
            // Scheduling-independent histogram sample: one
            // observation per cell, so the merged histogram is
            // bit-identical across IBS_THREADS like the counters.
            registry.observe("sim.cell.instructions",
                             stats.instructions);
        }
    }
    stats.check(config);
    return stats;
}

} // namespace ibs
