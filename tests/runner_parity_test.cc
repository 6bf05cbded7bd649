/**
 * @file
 * Parity between the two replay drivers: FetchEngine::run over a
 * record stream and SuiteTraces::runOne over the workload's run
 * trace must agree exactly on instruction-only workloads — the
 * SuiteTraces path merely strips the TraceRecord framing and cuts
 * the instruction addresses into runs.
 *
 * The deliberate asymmetry is also pinned down: data records reach
 * FetchEngine::dataTouch only through run(). SuiteTraces stores
 * instruction runs only, so a unified-L2 experiment that needs the
 * data stream (bench/ablation_unified_l2) must drive run() — if
 * someone rewires it onto SuiteTraces, the second test here is the
 * tripwire that the data stream went missing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fetch_engine.h"
#include "replay_oracle.h"
#include "sim/runner.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace ibs {
namespace {

/** Configs spanning the interface policies, incl. a unified L2. */
std::vector<std::pair<std::string, FetchConfig>>
parityConfigs()
{
    std::vector<std::pair<std::string, FetchConfig>> configs;
    configs.emplace_back("economy", economyBaseline());

    FetchConfig pf = economyBaseline();
    pf.l1.lineBytes = 16;
    pf.prefetchLines = 3;
    pf.bypass = true;
    configs.emplace_back("prefetch_bypass", pf);

    FetchConfig unified =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    unified.l2Unified = true;
    configs.emplace_back("unified_l2", unified);
    return configs;
}

TEST(RunnerParity, RunAndRunOneAgreeOnInstructionOnlyTraces)
{
    constexpr uint64_t kInstructions = 30000;
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    ASSERT_FALSE(spec.data.enabled)
        << "parity premise: specs are instruction-only by default";

    SuiteTraces suite({spec}, kInstructions);
    ASSERT_EQ(suite.runTrace(0, 32).instructions, kInstructions);

    for (const auto &[name, config] : parityConfigs()) {
        WorkloadModel model(spec);
        FetchEngine engine(config);
        const FetchStats streamed = engine.run(model, kInstructions);
        const FetchStats flat = suite.runOne(0, config);
        expectEqualStats(streamed, flat, name);
        // Instruction-only input: nothing may have reached the
        // unified L2's data side on either path.
        EXPECT_EQ(streamed.l2DataAccesses, 0u) << name;
    }
}

TEST(RunnerParity, DataRecordsReachDataTouchOnlyViaRun)
{
    constexpr uint64_t kInstructions = 30000;
    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    spec.data.enabled = true;

    FetchConfig unified =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    unified.l2Unified = true;

    // run() consumes the merged stream: data records must land in
    // dataTouch and perturb the L2.
    WorkloadModel model(spec);
    FetchEngine engine(unified);
    const FetchStats streamed = engine.run(model, kInstructions);
    EXPECT_EQ(streamed.instructions, kInstructions);
    EXPECT_GT(streamed.l2DataAccesses, 0u);

    // SuiteTraces stores instruction runs only — the data stream is
    // dropped at generation, so runOne cannot model a unified L2's
    // data competition. This is intentional and
    // documented; the EXPECT below is the tripwire for anyone
    // rewiring the unified-L2 bench onto SuiteTraces.
    SuiteTraces suite({spec}, kInstructions);
    const FetchStats flat = suite.runOne(0, unified);
    EXPECT_EQ(flat.l2DataAccesses, 0u);
    EXPECT_EQ(flat.instructions, kInstructions);
    // And the dropped data stream is visible in the stats: the
    // instruction-side L2 behaviour differs once data competes.
    EXPECT_NE(streamed.l2Misses, flat.l2Misses);
}

} // namespace
} // namespace ibs
