/**
 * @file
 * Differential tests of the run-length batched fetch path
 * (FetchEngine::fetchRun / Cache::accessRun / SuiteTraces::runOne):
 * replaying a trace as compressed runs must leave FetchStats
 * bit-for-bit identical to the scalar per-instruction loop (the
 * oracle: FetchEngine::fetch, fetchRun's own fallback) for every
 * fetch-path config class the benches exercise — blocking baseline,
 * sequential prefetch, prefetch + bypass buffers, pipelined L2 +
 * stream buffer, on-chip L2, and unified L2 with data touches.
 *
 * The batched fast path only engages for line-resident runs with no
 * bypass window active, and it must advance the L1's LRU stamp clock
 * exactly as the scalar probes would. StampClockAdvancement below
 * was written against a deliberately broken accessRun (stamp update
 * removed) and fails on it: the reuse pattern makes a wrong victim
 * choice visible as extra L1 misses.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/fetch_engine.h"
#include "flat_trace.h"
#include "replay_oracle.h"
#include "sim/runner.h"
#include "stats/rng.h"
#include "trace/run_trace.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace ibs {
namespace {

/** One config per L1-L2 interface policy the benches evaluate. */
std::vector<std::pair<std::string, FetchConfig>>
configClasses()
{
    std::vector<std::pair<std::string, FetchConfig>> classes;

    classes.emplace_back("blocking_economy", economyBaseline());

    FetchConfig prefetch = economyBaseline();
    prefetch.prefetchLines = 3;
    classes.emplace_back("prefetch", prefetch);

    FetchConfig bypass = economyBaseline();
    bypass.l1.lineBytes = 16;
    bypass.prefetchLines = 3;
    bypass.bypass = true;
    classes.emplace_back("prefetch_bypass", bypass);

    FetchConfig pipe;
    pipe.l1 = CacheConfig{8 * 1024, 1, 16};
    pipe.l1Fill = MemoryTiming{6, 16};
    pipe.pipelined = true;
    pipe.streamBufferLines = 6;
    classes.emplace_back("pipelined_stream_buffer", pipe);

    classes.emplace_back(
        "on_chip_l2",
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2));

    FetchConfig unified =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    unified.l2Unified = true;
    classes.emplace_back("unified_l2", unified);

    return classes;
}

/**
 * A randomized instruction stream with the statistics that matter to
 * the fast path: geometric sequential runs (some crossing line
 * boundaries, some not), taken branches into a bounded footprint
 * (reuse → hits and conflict misses), and occasional far jumps.
 */
std::vector<uint64_t>
randomTrace(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint64_t> addrs;
    addrs.reserve(n);
    uint64_t pc = 0x10000;
    while (addrs.size() < n) {
        const uint64_t run = 1 + rng.nextGeometric(0.12);
        for (uint64_t k = 0; k < run && addrs.size() < n; ++k) {
            addrs.push_back(pc);
            pc += kInstrBytes;
        }
        if (rng.nextBool(0.1)) {
            // Far jump: new region, compulsory misses.
            pc = 0x10000 + rng.nextBounded(1 << 22) * kInstrBytes;
        } else {
            // Local branch inside a 32-KB window: temporal reuse.
            pc = 0x10000 + rng.nextBounded(1 << 13) * kInstrBytes;
        }
    }
    return addrs;
}

/** Replay `addrs` batched (fetchRun over compressed runs) and
 *  scalar (per-instruction fetch) and compare FetchStats. */
void
diffTrace(const std::vector<uint64_t> &addrs, const std::string &tag)
{
    for (const auto &[name, config] : configClasses()) {
        const RunTrace runs =
            compressRuns(addrs, config.l1.lineBytes);
        ASSERT_EQ(runs.instructions, addrs.size()) << name;

        FetchEngine batched(config);
        for (const FetchRun &run : runs.runs)
            batched.fetchRun(run);

        FetchEngine scalar(config);
        for (uint64_t addr : addrs)
            scalar.fetch(addr);

        expectEqualStats(batched.stats(), scalar.stats(),
                         tag + "/" + name);
    }
}

TEST(FetchBatchDiff, RandomizedTracesAllConfigClasses)
{
    for (uint64_t seed : {1ull, 7ull, 1995ull})
        diffTrace(randomTrace(seed, 60000),
                  "random_seed" + std::to_string(seed));
}

TEST(FetchBatchDiff, WorkloadModelTraceAllConfigClasses)
{
    diffTrace(flatTrace(makeIbs(IbsBenchmark::Gs, OsType::Mach), 60000),
              "workload_gs");
}

/**
 * Unified-L2 class with real data records: instruction runs are
 * batched between data touches (batching never spans a dataTouch,
 * matching how any record-stream driver would use fetchRun), and the
 * data stream must perturb the L2 identically on both paths.
 */
TEST(FetchBatchDiff, UnifiedL2WithDataTouches)
{
    WorkloadSpec spec = makeIbs(IbsBenchmark::Sdet, OsType::Mach);
    spec.data.enabled = true;
    std::vector<TraceRecord> records;
    {
        WorkloadModel model(spec);
        TraceRecord rec;
        uint64_t instrs = 0;
        while (instrs < 40000 && model.next(rec)) {
            records.push_back(rec);
            instrs += rec.isInstr();
        }
    }

    FetchConfig config =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    config.l2Unified = true;

    FetchEngine batched(config);
    std::vector<uint64_t> pending;
    auto flush = [&] {
        const RunTrace runs =
            compressRuns(pending, config.l1.lineBytes);
        for (const FetchRun &run : runs.runs)
            batched.fetchRun(run);
        pending.clear();
    };
    for (const TraceRecord &rec : records) {
        if (rec.isInstr()) {
            pending.push_back(rec.vaddr);
        } else {
            flush();
            batched.dataTouch(rec.vaddr);
        }
    }
    flush();

    FetchEngine scalar(config);
    for (const TraceRecord &rec : records) {
        if (rec.isInstr())
            scalar.fetch(rec.vaddr);
        else
            scalar.dataTouch(rec.vaddr);
    }

    ASSERT_GT(scalar.stats().l2DataAccesses, 0u);
    expectEqualStats(batched.stats(), scalar.stats(), "unified_l2");
}

/**
 * LRU stamp-clock regression: a 2-way set with three conflicting
 * lines where the victim choice after a batched-hit run depends on
 * the run having refreshed the line's recency. With the stamp update
 * removed from Cache::accessRun this sequence picks the wrong victim
 * and the miss counts diverge (verified by breaking it on purpose).
 */
TEST(FetchBatchDiff, StampClockAdvancement)
{
    FetchConfig config = economyBaseline();
    // 2 sets x 2 ways of 16B lines: lines 0x000, 0x040, 0x080 all
    // index set 0.
    config.l1 = CacheConfig{64, 2, 16};

    const uint64_t lineA = 0x000, lineB = 0x040, lineC = 0x080;
    std::vector<uint64_t> addrs;
    auto pushLine = [&](uint64_t base) {
        for (uint64_t off = 0; off < 16; off += kInstrBytes)
            addrs.push_back(base + off);
    };
    pushLine(lineA); // miss, fill way 0
    pushLine(lineB); // miss, fill way 1; LRU order: A then B
    pushLine(lineA); // resident: the batched fast path serves this
                     // run and must make A most-recently-used
    pushLine(lineC); // miss: victim must be B, not A
    pushLine(lineA); // hit iff A survived
    pushLine(lineB); // miss iff B was the victim

    diffTrace(addrs, "stamp_clock");

    // Belt and braces: the batched replay must show the scalar miss
    // count (A, B, C, B = 4 line fills), not the 5 a stale-stamp
    // victim choice would produce.
    const RunTrace runs = compressRuns(addrs, config.l1.lineBytes);
    FetchEngine engine(config);
    for (const FetchRun &run : runs.runs)
        engine.fetchRun(run);
    EXPECT_EQ(engine.stats().l1Misses, 4u);
}

/**
 * SuiteTraces::runOne (streamed run traces into fetchRun, the one
 * production replay path) must match the oracle — a FetchEngine::fetch
 * loop over the same workload's flat addresses — for every config
 * class; the run-trace memo must build one entry per
 * (workload, lineBytes).
 */
TEST(FetchBatchDiff, SuiteTracesRunOneMatchesScalarOracle)
{
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach),
        makeIbs(IbsBenchmark::Nroff, OsType::Mach)};
    SuiteTraces suite(specs, 30000);

    for (const auto &[name, config] : configClasses()) {
        for (size_t w = 0; w < suite.count(); ++w) {
            FetchEngine scalar(config);
            for (uint64_t addr : flatTrace(specs[w], 30000))
                scalar.fetch(addr);
            expectEqualStats(suite.runOne(w, config), scalar.stats(),
                             name + "/" + suite.name(w));
        }
    }

    // Distinct line sizes across the classes: 16 and 32 (L1); one
    // memo entry per workload per line size, shared by every config
    // with that line size.
    EXPECT_EQ(suite.runTracesBuilt(), 2 * suite.count());
}

/** The encoding itself is lossless and line-bounded. */
TEST(FetchBatchDiff, CompressRunsRoundTripAndBounds)
{
    const std::vector<uint64_t> addrs = randomTrace(42, 20000);
    for (uint32_t line : {16u, 32u, 64u}) {
        const RunTrace rt = compressRuns(addrs, line);
        EXPECT_EQ(rt.lineBytes, line);
        EXPECT_EQ(rt.instructions, addrs.size());
        std::vector<uint64_t> rebuilt;
        rebuilt.reserve(addrs.size());
        const uint64_t mask = ~uint64_t{line - 1};
        for (const FetchRun &run : rt.runs) {
            ASSERT_GE(run.count, 1u);
            ASSERT_LE(run.count, line / kInstrBytes);
            // Entire run inside one line.
            EXPECT_EQ(run.startVaddr & mask,
                      (run.startVaddr +
                       uint64_t{run.count - 1} * kInstrBytes) & mask);
            for (uint32_t k = 0; k < run.count; ++k)
                rebuilt.push_back(run.startVaddr +
                                  uint64_t{k} * kInstrBytes);
        }
        EXPECT_EQ(rebuilt, addrs);
    }
    EXPECT_THROW(compressRuns(addrs, 0), std::invalid_argument);
    EXPECT_THROW(compressRuns(addrs, 48), std::invalid_argument);
    EXPECT_THROW(compressRuns(addrs, 2), std::invalid_argument);

    const RunTrace empty = compressRuns({}, 32);
    EXPECT_EQ(empty.instructions, 0u);
    EXPECT_TRUE(empty.runs.empty());
}

} // namespace
} // namespace ibs
