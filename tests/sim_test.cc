/**
 * @file
 * Unit tests for the experiment runners and the Tapeworm driver.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "flat_trace.h"
#include "replay_oracle.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "vm/page.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {
namespace {

/** Page trace of the first `n` instructions of `spec`. */
RunTrace
pageTrace(const WorkloadSpec &spec, uint64_t n)
{
    WorkloadModel model(spec);
    return generateRunTrace(model, PAGE_SIZE, n);
}

TEST(Runner, RunFetchProducesStats)
{
    WorkloadModel model(makeSpec(SpecBenchmark::Espresso));
    FetchEngine engine(economyBaseline());
    const FetchStats s = engine.run(model, 50000);
    EXPECT_EQ(s.instructions, 50000u);
    EXPECT_GT(s.l1Misses, 0u);
    EXPECT_GT(s.cpiInstr(), 0.0);
}

TEST(Runner, SuiteTracesShapes)
{
    SuiteTraces traces(specSuite(), 10000);
    EXPECT_EQ(traces.count(), allSpecBenchmarks().size());
    for (size_t i = 0; i < traces.count(); ++i) {
        EXPECT_EQ(traces.runTrace(i, 32).instructions, 10000u);
        EXPECT_FALSE(traces.name(i).empty());
    }
}

TEST(Runner, SuiteRunMergesAllWorkloads)
{
    SuiteTraces traces(specSuite(), 5000);
    const FetchStats s = runSuite(traces, economyBaseline());
    EXPECT_EQ(s.instructions, 5000u * traces.count());
}

TEST(Runner, RunOneMatchesManualEngine)
{
    const WorkloadSpec spec = makeSpec(SpecBenchmark::Eqntott);
    SuiteTraces traces({spec}, 20000);
    const FetchConfig config = highPerfBaseline();
    const FetchStats a = traces.runOne(0, config);

    FetchEngine engine(config);
    for (uint64_t addr : flatTrace(spec, 20000))
        engine.fetch(addr);
    const FetchStats b = engine.stats();
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.cycles, b.cycles);
}

/**
 * The premise of the benches that read MPI off sweep cells (table4,
 * ablation_bloat, ablation_placement, ablation_victim): with no L2,
 * prefetch, bypass or stream buffer, a blocking engine misses exactly
 * where a bare Cache::access loop over the flat trace does.
 */
TEST(Runner, L2LessBlockingMissesEqualBareCacheLoop)
{
    constexpr uint64_t kInstr = 40000;
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach),
        makeIbs(IbsBenchmark::Sdet, OsType::Ultrix),
        makeSpec(SpecBenchmark::Gcc)};
    const SuiteTraces suite(specs, kInstr);
    for (size_t w = 0; w < specs.size(); ++w) {
        const std::vector<uint64_t> addrs = flatTrace(specs[w], kInstr);
        for (uint32_t assoc : {1u, 2u, 8u}) {
            FetchConfig config;
            config.l1 = CacheConfig{8 * 1024, assoc, 32,
                                    Replacement::LRU};
            ASSERT_FALSE(config.hasL2 || config.prefetchLines ||
                         config.bypass || config.pipelined);
            Cache bare(config.l1);
            uint64_t misses = 0;
            for (uint64_t addr : addrs)
                misses += !bare.access(addr);

            const FetchStats s = suite.runOne(w, config);
            const std::string label =
                specs[w].name + "/" + std::to_string(assoc) + "way";
            EXPECT_EQ(s.instructions, addrs.size()) << label;
            EXPECT_EQ(s.l1Misses, misses) << label;
            EXPECT_GT(misses, 0u) << label;
        }
    }
}

TEST(Runner, BenchInstructionsEnvOverride)
{
    unsetenv("IBS_BENCH_INSTR");
    EXPECT_EQ(benchInstructions(123), 123u);
    setenv("IBS_BENCH_INSTR", "4567", 1);
    EXPECT_EQ(benchInstructions(123), 4567u);
    setenv("IBS_BENCH_INSTR", "garbage", 1);
    EXPECT_EQ(benchInstructions(123), 123u);
    unsetenv("IBS_BENCH_INSTR");
}

TEST(Runner, ParseEnvCountRejectsMalformedValues)
{
    // strtoull alone would accept "45x" as 45 and saturate silently
    // on overflow; the hardened parser must fall back instead.
    setenv("IBS_BENCH_INSTR", "45x", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "99999999999999999999999", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "-5", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "0", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "12 34", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
    setenv("IBS_BENCH_INSTR", "890", 1);
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 890u);
    unsetenv("IBS_BENCH_INSTR");
    EXPECT_EQ(parseEnvCount("IBS_BENCH_INSTR", 7), 7u);
}

TEST(Runner, ParseCountAcceptsOnlyDigitsInRange)
{
    // The command-line half of parseEnvCount: the same rules, with
    // nullopt instead of a warning and a fallback.
    EXPECT_EQ(parseCount("890"), 890u);
    EXPECT_EQ(parseCount("18446744073709551615"), UINT64_MAX);
    for (const char *bad : {"", "0", "45x", "x", "12 34", " 5", "+5",
                            "-1", " -1", "-0",
                            "18446744073709551616",
                            "99999999999999999999999"})
        EXPECT_EQ(parseCount(bad), std::nullopt) << '"' << bad << '"';

    // Bounds as the tools use them: ports, connection counts, and a
    // count where 0 is meaningful.
    EXPECT_EQ(parseCount("65535", 1, 65535), 65535u);
    EXPECT_EQ(parseCount("70000", 1, 65535), std::nullopt);
    EXPECT_EQ(parseCount("0", 1, 65535), std::nullopt);
    EXPECT_EQ(parseCount("1024", 1, 1024), 1024u);
    EXPECT_EQ(parseCount("1025", 1, 1024), std::nullopt);
    EXPECT_EQ(parseCount("4294967295", 1, 1024), std::nullopt);
    EXPECT_EQ(parseCount("0", 0, UINT64_MAX), 0u);
}

TEST(Tapeworm, ProducesRequestedTrials)
{
    TapewormConfig config;
    config.trials = 4;
    const TapewormResult r = runTapeworm(
        pageTrace(makeSpec(SpecBenchmark::Espresso), 30000), config);
    EXPECT_EQ(r.cpiInstr.count(), 4u);
    EXPECT_GT(r.cpiInstr.mean(), 0.0);
    EXPECT_DOUBLE_EQ(r.cpiInstr.mean(),
                     r.mpi100.mean() / 100.0 * config.missPenalty);
}

TEST(Tapeworm, RandomMappingVaries)
{
    // With a physically-indexed cache larger than a page, random
    // page placement must produce run-to-run variation (Figure 5).
    TapewormConfig config;
    config.cache = CacheConfig{32 * 1024, 1, 32, Replacement::LRU};
    config.trials = 5;
    config.policy = PagePolicy::Random;
    const TapewormResult r = runTapeworm(
        pageTrace(makeIbs(IbsBenchmark::Verilog, OsType::Mach), 60000),
        config);
    EXPECT_GT(r.cpiInstr.stddev(), 0.0);
}

TEST(Tapeworm, PageColoringIsDeterministicAcrossTrials)
{
    // Page coloring pins the *cache index bits* of every page, so
    // the conflict pattern — and hence CPIinstr — should be nearly
    // identical across trials even though frames differ.
    TapewormConfig config;
    config.cache = CacheConfig{32 * 1024, 1, 32, Replacement::LRU};
    config.trials = 5;
    const RunTrace trace =
        pageTrace(makeIbs(IbsBenchmark::Verilog, OsType::Mach), 60000);

    config.policy = PagePolicy::Random;
    const TapewormResult random = runTapeworm(trace, config);

    config.policy = PagePolicy::PageColoring;
    const TapewormResult colored = runTapeworm(trace, config);

    EXPECT_LT(colored.cpiInstr.stddev(),
              random.cpiInstr.stddev() + 1e-9);
    EXPECT_NEAR(colored.cpiInstr.stddev(), 0.0, 1e-6);
}

TEST(Tapeworm, FullyAssociativeCacheImmuneToPlacement)
{
    // A fully-associative cache has a single set: page placement
    // cannot change its behaviour at all.
    TapewormConfig config;
    config.cache = CacheConfig{16 * 1024, 512, 32, Replacement::LRU};
    config.trials = 3;
    const TapewormResult r = runTapeworm(
        pageTrace(makeIbs(IbsBenchmark::Gs, OsType::Mach), 40000),
        config);
    EXPECT_NEAR(r.cpiInstr.stddev(), 0.0, 1e-9);
}

} // namespace
} // namespace ibs
