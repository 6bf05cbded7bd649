/**
 * @file
 * Integration tests: the headline experiment results, end to end
 * (workload generation -> fetch engine -> CPI), pinned with generous
 * bands. These are the repository's regression net for "does the
 * whole pipeline still reproduce the paper" — the per-module tests
 * cover the parts, these cover the composition.
 */

#include <gtest/gtest.h>

#include "core/fetch_config.h"
#include "replay_oracle.h"
#include "sim/runner.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

class Integration : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ibs_ = new SuiteTraces(ibsSuite(OsType::Mach), 400000);
        spec_ = new SuiteTraces(specSuite(), 400000);
    }

    static void
    TearDownTestSuite()
    {
        delete ibs_;
        delete spec_;
        ibs_ = nullptr;
        spec_ = nullptr;
    }

    static SuiteTraces *ibs_;
    static SuiteTraces *spec_;
};

SuiteTraces *Integration::ibs_ = nullptr;
SuiteTraces *Integration::spec_ = nullptr;

TEST_F(Integration, Table5Baselines)
{
    // Paper: economy IBS 1.77, high-perf IBS 0.72.
    const double econ = runSuite(*ibs_, economyBaseline()).cpiInstr();
    const double perf = runSuite(*ibs_, highPerfBaseline()).cpiInstr();
    EXPECT_NEAR(econ, 1.77, 0.35);
    EXPECT_NEAR(perf, 0.72, 0.15);
    // SPEC is several times lower on both.
    EXPECT_LT(runSuite(*spec_, economyBaseline()).cpiInstr(),
              econ / 2.5);
}

TEST_F(Integration, OnChipL2ReducesCpiDramatically)
{
    const double base = runSuite(*ibs_, economyBaseline()).cpiInstr();
    const FetchStats with_l2 = runSuite(
        *ibs_, withOnChipL2(economyBaseline(), 64 * 1024, 64, 8));
    // Paper Figure 7: 1.77 -> ~0.5.
    EXPECT_LT(with_l2.cpiInstr(), base / 2.5);
    // The L1 contribution settles near the paper's 0.34.
    EXPECT_NEAR(with_l2.l1Cpi(), 0.34, 0.07);
}

TEST_F(Integration, Table6PrefetchInversion)
{
    // 16B line + 3 prefetches beats a plain 64B line, both moving
    // 64 bytes per miss (the paper's Smith [Smith82] result).
    FetchConfig fine;
    fine.l1 = CacheConfig{8 * 1024, 1, 16};
    fine.l1Fill = MemoryTiming{6, 16};
    fine.prefetchLines = 3;

    FetchConfig coarse = fine;
    coarse.l1.lineBytes = 64;
    coarse.prefetchLines = 0;

    EXPECT_LT(runSuite(*ibs_, fine).cpiInstr(),
              runSuite(*ibs_, coarse).cpiInstr());
}

TEST_F(Integration, Table8StreamBufferSaturation)
{
    auto cpi = [&](uint32_t lines) {
        FetchConfig c;
        c.l1 = CacheConfig{8 * 1024, 1, 16};
        c.l1Fill = MemoryTiming{6, 16};
        c.pipelined = true;
        c.streamBufferLines = lines;
        return runSuite(*ibs_, c).cpiInstr();
    };
    const double none = cpi(0);
    const double six = cpi(6);
    const double eighteen = cpi(18);
    // Paper: ~66% reduction by 6 lines; marginal beyond.
    EXPECT_LT(six, none * 0.45);
    EXPECT_GT(eighteen, six * 0.80);
    EXPECT_LE(eighteen, six * 1.02);
}

TEST_F(Integration, OptimizedPathLowerBound)
{
    // Paper §6: the best design still contributes >= ~0.18 to CPI
    // under IBS (we accept 0.10-0.30), and far less under SPEC.
    FetchConfig opt = withOnChipL2(highPerfBaseline(), 64 * 1024,
                                   64, 8);
    opt.l1Fill = MemoryTiming{6, 32};
    opt.pipelined = true;
    opt.streamBufferLines = 6;
    const double ibs_cpi = runSuite(*ibs_, opt).cpiInstr();
    const double spec_cpi = runSuite(*spec_, opt).cpiInstr();
    EXPECT_GT(ibs_cpi, 0.10);
    EXPECT_LT(ibs_cpi, 0.30);
    EXPECT_LT(spec_cpi, ibs_cpi / 2.5);
}

TEST_F(Integration, BandwidthOptimalLineGrows)
{
    auto best_line = [&](uint32_t bw) {
        double best = 1e9;
        uint32_t arg = 0;
        for (uint32_t line : {8u, 16u, 32u, 64u, 128u, 256u}) {
            FetchConfig c;
            c.l1 = CacheConfig{8 * 1024, 1, line};
            c.l1Fill = MemoryTiming{6, bw};
            const double v = runSuite(*ibs_, c).cpiInstr();
            if (v < best) {
                best = v;
                arg = line;
            }
        }
        return arg;
    };
    const uint32_t at4 = best_line(4);
    const uint32_t at64 = best_line(64);
    EXPECT_LT(at4, at64); // Figure 6's diagonal of black symbols.
}

} // namespace
} // namespace ibs
