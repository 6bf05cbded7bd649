/**
 * @file
 * Unit tests for the experiment runners and the Tapeworm driver.
 */

#include <gtest/gtest.h>

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
        EXPECT_EQ(traces.addresses(i).size(), 10000u);
        EXPECT_FALSE(traces.name(i).empty());
    }
}

TEST(Runner, SuiteRunMergesAllWorkloads)
{
    SuiteTraces traces(specSuite(), 5000);
    const FetchStats s = traces.runSuite(economyBaseline());
    EXPECT_EQ(s.instructions, 5000u * traces.count());
}

TEST(Runner, RunOneMatchesManualEngine)
{
    SuiteTraces traces({makeSpec(SpecBenchmark::Eqntott)}, 20000);
    const FetchConfig config = highPerfBaseline();
    const FetchStats a = traces.runOne(0, config);

    FetchEngine engine(config);
    for (uint64_t addr : traces.addresses(0))
        engine.fetch(addr);
    const FetchStats b = engine.stats();
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.cycles, b.cycles);
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
