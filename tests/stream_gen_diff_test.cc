/**
 * @file
 * Differential tests of the zero-materialization streaming fetch
 * path (workload/run_stream.h, SuiteTraces) and the vectorized tag
 * probe (Cache::probeWays):
 *
 *  - RunStream must emit the *exact* run sequence that compressRuns
 *    makes of the flat trace (tests/flat_trace.h) — same cuts, same
 *    counts — at every line size, including budgets that cut a run
 *    mid-flight, and must refuse a workload with data references;
 *  - SuiteTraces::runOne must replay to FetchStats bit-identical to
 *    the oracle — compressRuns over the flat trace, replayed
 *    through fetchRun — across every fetch-path config class
 *    tests/fetch_batch_diff_test.cc covers;
 *  - the SIMD probe must preserve first-match semantics and the LRU
 *    stamp-clock behavior for hits in every way position, including
 *    ways beyond the first 4-wide compare block.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "core/fetch_engine.h"
#include "flat_trace.h"
#include "replay_oracle.h"
#include "sim/runner.h"
#include "stats/rng.h"
#include "trace/run_trace.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {
namespace {

/** Same six classes as tests/fetch_batch_diff_test.cc: one per L1-L2
 *  interface policy the benches evaluate. */
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
    pipe.l1 = CacheConfig{8 * 1024, 1, 16, Replacement::LRU};
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

/** Streamed and compressed run traces of one spec must be equal
 *  run-for-run, not merely replay-equivalent. */
void
expectSameRuns(const WorkloadSpec &spec, uint64_t n,
               uint32_t line_bytes)
{
    const std::vector<uint64_t> addrs = flatTrace(spec, n);
    const RunTrace compressed = compressRuns(addrs, line_bytes);

    WorkloadModel model(spec);
    const RunTrace streamed =
        generateRunTrace(model, line_bytes, n);

    const std::string label = spec.name + "/line" +
        std::to_string(line_bytes) + "/n" + std::to_string(n);
    EXPECT_EQ(streamed.lineBytes, compressed.lineBytes) << label;
    EXPECT_EQ(streamed.instructions, compressed.instructions)
        << label;
    ASSERT_EQ(streamed.runs.size(), compressed.runs.size()) << label;
    for (size_t r = 0; r < streamed.runs.size(); ++r) {
        ASSERT_EQ(streamed.runs[r].startVaddr,
                  compressed.runs[r].startVaddr)
            << label << " run " << r;
        ASSERT_EQ(streamed.runs[r].count, compressed.runs[r].count)
            << label << " run " << r;
    }
}

TEST(StreamGenDiff, RunStreamMatchesCompressRuns)
{
    for (IbsBenchmark b : {IbsBenchmark::Gs, IbsBenchmark::Sdet,
                           IbsBenchmark::MpegPlay}) {
        const WorkloadSpec spec = makeIbs(b, OsType::Mach);
        for (uint32_t line : {16u, 32u, 64u})
            expectSameRuns(spec, 50000, line);
    }
    // Ultrix flavor exercises different component mixes.
    expectSameRuns(makeIbs(IbsBenchmark::Nroff, OsType::Ultrix),
                   50000, 32);
}

TEST(StreamGenDiff, RunStreamRejectsDataReferences)
{
    // Data-enabled specs draw the scheduler RNG per record, so blocks
    // cannot skip records: such a workload has no run trace, and the
    // error names it.
    WorkloadSpec spec = makeIbs(IbsBenchmark::Sdet, OsType::Mach);
    spec.data.enabled = true;
    WorkloadModel model(spec);
    EXPECT_THROW(RunStream(model, 32, 100), std::invalid_argument);
    try {
        generateRunTrace(model, 32, 100);
        ADD_FAILURE() << "data-enabled workload was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(spec.name),
                  std::string::npos)
            << e.what();
    }
}

TEST(StreamGenDiff, BudgetCutsMidRunExactlyLikeTruncation)
{
    // Odd budgets land mid-run and even mid-line; the stream must
    // emit precisely the runs of the truncated flat trace.
    const WorkloadSpec spec =
        makeIbs(IbsBenchmark::Verilog, OsType::Mach);
    for (uint64_t n : {1ull, 2ull, 3ull, 7ull, 1001ull, 4999ull})
        expectSameRuns(spec, n, 32);
}

TEST(StreamGenDiff, RunStreamRejectsBadLineSizes)
{
    WorkloadModel model(makeIbs(IbsBenchmark::Gs, OsType::Mach));
    EXPECT_THROW(RunStream(model, 0, 100), std::invalid_argument);
    EXPECT_THROW(RunStream(model, 2, 100), std::invalid_argument);
    EXPECT_THROW(RunStream(model, 48, 100), std::invalid_argument);
}

TEST(StreamGenDiff, StreamingSuiteMatchesMaterializedAllClasses)
{
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach),
        makeIbs(IbsBenchmark::Nroff, OsType::Mach)};
    constexpr uint64_t kInstr = 30000;
    const SuiteTraces suite(specs, kInstr);

    for (size_t w = 0; w < specs.size(); ++w) {
        const std::vector<uint64_t> addrs = flatTrace(specs[w], kInstr);
        for (const auto &[name, config] : configClasses()) {
            const RunTrace runs =
                compressRuns(addrs, config.l1.lineBytes);
            FetchEngine oracle(config);
            for (const FetchRun &run : runs.runs)
                oracle.fetchRun(run);
            expectEqualStats(suite.runOne(w, config), oracle.stats(),
                             name + "/" + specs[w].name);
        }
    }
}

TEST(StreamGenDiff, StreamingSuiteRetainsOnlyRunTraces)
{
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach)};
    constexpr uint64_t kInstr = 20000;
    const SuiteTraces suite(specs, kInstr);

    // Nothing generated yet: nothing retained.
    EXPECT_EQ(suite.retainedTraceBytes(), 0u);

    suite.runOne(0, economyBaseline());
    const RunTrace &rt = suite.runTrace(
        0, economyBaseline().l1.lineBytes);
    EXPECT_EQ(rt.instructions, kInstr);
    EXPECT_EQ(suite.retainedTraceBytes(), rt.bytes());
    EXPECT_GE(rt.bytes(), rt.runs.size() * sizeof(FetchRun));
    // Run-level retention beats a flat vector by the compression
    // ratio x 2 (16B per ~4.2-instruction run vs 8B per
    // instruction); >= 1.5x is conservative even at 16B lines.
    EXPECT_LE(rt.bytes() * 3 / 2, kInstr * sizeof(uint64_t));
}

TEST(StreamGenDiff, ObsCountersFlowFromStreamingReplay)
{
    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();
    reg.reset();
    reg.setEnabled(true);

    // Every SuiteTraces replay publishes the streamed-run counters,
    // and republishes on *every* replay (warm memo included) so sweep
    // snapshots do not depend on memo state or thread count. Each
    // streamed run reaches fetchRun exactly once, which retires it
    // either batched or through the scalar fallback.
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    const SuiteTraces suite({spec}, 10000);
    const auto expect_every_run_replayed = [&](uint64_t replays) {
        const auto snap = reg.snapshot();
        ASSERT_TRUE(snap.count("workload.model.runs_emitted"));
        ASSERT_TRUE(snap.count("fetch.engine.batched_runs"));
        ASSERT_TRUE(snap.count("fetch.engine.batch_fallbacks"));
        const uint64_t emitted = snap.at("workload.model.runs_emitted");
        EXPECT_EQ(emitted,
                  replays *
                      suite.runTrace(0, economyBaseline().l1.lineBytes)
                          .runs.size());
        EXPECT_EQ(snap.at("fetch.engine.batched_runs") +
                      snap.at("fetch.engine.batch_fallbacks"),
                  emitted);
    };

    const FetchStats cold = suite.runOne(0, economyBaseline());
    EXPECT_EQ(cold.instructions, 10000u);
    expect_every_run_replayed(1);

    suite.runOne(0, economyBaseline());
    expect_every_run_replayed(2);

    reg.reset();
    reg.setEnabled(was_enabled);
}

/**
 * LRU stamp-clock mutation test against the SIMD probe, mirroring
 * FetchBatchDiff.StampClockAdvancement: a hit found by the vectorized
 * compare must refresh recency exactly like the scalar loop did, for
 * a match in *every* way position — including ways 4..7, which sit in
 * the second 4-wide compare block of an 8-way set.
 */
TEST(StreamGenDiff, SimdProbeUpdatesLruStampPerWay)
{
    constexpr uint32_t kWays = 8;
    constexpr uint32_t kLine = 16;
    auto line = [](uint64_t i) { return i * kLine; };
    for (uint32_t touched = 0; touched < kWays; ++touched) {
        // One set of 8 ways: every line below conflicts. Fill ways
        // 0..7 with L0..L7 (insert fills invalid ways lowest-first:
        // L0 oldest), re-touch exactly one line through the batched
        // run probe, then allocate 7 fresh conflicting lines. Each
        // allocation evicts the LRU line, so the only original
        // survivor must be the touched one — if the SIMD probe
        // stamped the wrong way (or none), a different line
        // survives.
        Cache cache(CacheConfig{kWays * kLine, kWays, kLine,
                                Replacement::LRU});
        for (uint64_t i = 0; i < kWays; ++i)
            cache.insert(line(i));
        ASSERT_TRUE(cache.accessRun(line(touched), 4))
            << "way " << touched;
        for (uint64_t f = 1; f < kWays; ++f)
            ASSERT_FALSE(cache.access(line(100 + f)));
        for (uint64_t i = 0; i < kWays; ++i) {
            EXPECT_EQ(cache.contains(line(i)), i == touched)
                << "original line " << i << " after touching way "
                << touched;
        }
    }
}

TEST(StreamGenDiff, ProbeFindsTagInEveryWayPosition)
{
    constexpr uint32_t kWays = 8;
    constexpr uint32_t kLine = 32;
    Cache cache(CacheConfig{kWays * kLine, kWays, kLine,
                            Replacement::LRU});
    for (uint64_t i = 0; i < kWays; ++i) {
        const uint64_t addr = i * kLine;
        EXPECT_FALSE(cache.contains(addr));
        cache.insert(addr);
        EXPECT_TRUE(cache.contains(addr)) << "way " << i;
        EXPECT_TRUE(cache.access(addr)) << "way " << i;
        EXPECT_TRUE(cache.accessRun(addr, 3)) << "way " << i;
    }
    // Invalidate a middle way and ensure only it disappears.
    cache.invalidate(3 * kLine);
    for (uint64_t i = 0; i < kWays; ++i)
        EXPECT_EQ(cache.contains(i * kLine), i != 3) << i;
    // The victim choice's invalid-slot scan (also probeWays) must re-fill
    // the hole rather than evicting a valid line.
    const uint64_t before = cache.evictions();
    cache.insert(99 * kLine);
    EXPECT_EQ(cache.evictions(), before);
    for (uint64_t i = 0; i < kWays; ++i)
        EXPECT_EQ(cache.contains(i * kLine), i != 3) << i;
    EXPECT_TRUE(cache.contains(99 * kLine));
}

} // namespace
} // namespace ibs
