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
 * data stream (bench/ablation_unified_l2) must drive run(); a
 * data-enabled workload handed to SuiteTraces is refused with an
 * error instead of losing its data stream.
 */

#include <gtest/gtest.h>

#include <stdexcept>
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

    // SuiteTraces stores instruction runs only, so runOne cannot
    // model a unified L2's data competition. It refuses the workload
    // rather than silently dropping its data stream: anyone rewiring
    // the unified-L2 bench onto SuiteTraces gets this error.
    SuiteTraces suite({spec}, kInstructions);
    EXPECT_THROW(suite.runOne(0, unified), std::invalid_argument);
}

} // namespace
} // namespace ibs
