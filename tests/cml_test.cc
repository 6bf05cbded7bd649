/**
 * @file
 * Unit tests for the CML buffer and the recolor machinery.
 */

#include <gtest/gtest.h>

#include "sim/cml_sim.h"
#include "vm/address_space.h"
#include "vm/cml.h"
#include "vm/page.h"
#include "workload/ibs.h"
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

TEST(CmlBuffer, DetectsTwoPagePingPong)
{
    CmlConfig config;
    config.alternationThreshold = 4;
    CmlBuffer cml(8, config);
    CmlAdvice advice;
    bool triggered = false;
    for (int i = 0; i < 10 && !triggered; ++i) {
        triggered |= cml.recordMiss(3, 1, 100, advice);
        if (!triggered)
            triggered |= cml.recordMiss(3, 1, 200, advice);
    }
    EXPECT_TRUE(triggered);
    EXPECT_EQ(cml.triggers(), 1u);
    EXPECT_TRUE(advice.vpn == 100 || advice.vpn == 200);
}

TEST(CmlBuffer, IgnoresCapacityStream)
{
    // A rotating sweep over many pages in one bin never produces the
    // two-page alternation signature.
    CmlConfig config;
    config.alternationThreshold = 4;
    CmlBuffer cml(8, config);
    CmlAdvice advice;
    bool triggered = false;
    for (int round = 0; round < 50; ++round)
        for (uint64_t page = 0; page < 12; ++page)
            triggered |= cml.recordMiss(0, 1, page, advice);
    EXPECT_FALSE(triggered);
}

TEST(CmlBuffer, SingleHotPageNeverTriggers)
{
    CmlConfig config;
    config.alternationThreshold = 2;
    CmlBuffer cml(4, config);
    CmlAdvice advice;
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(cml.recordMiss(1, 1, 42, advice));
}

TEST(CmlBuffer, BinsAreIndependent)
{
    CmlConfig config;
    config.alternationThreshold = 3;
    CmlBuffer cml(8, config);
    CmlAdvice advice;
    // Alternate in bin 0 but spread the evidence over bins 1-7 too;
    // only bin 0 accumulates.
    bool triggered = false;
    for (int i = 0; i < 4 && !triggered; ++i) {
        triggered |= cml.recordMiss(0, 1, 10, advice);
        if (!triggered)
            triggered |= cml.recordMiss(0, 1, 20, advice);
        CmlAdvice unused;
        cml.recordMiss(1 + (i % 7), 1, 30 + i, unused);
    }
    EXPECT_TRUE(triggered);
}

TEST(CmlBuffer, EpochDecayForgets)
{
    CmlConfig config;
    config.alternationThreshold = 8;
    config.epochInstructions = 10;
    CmlBuffer cml(4, config);
    CmlAdvice advice;
    // Build up 6 alternations, then idle across several epochs.
    for (int i = 0; i < 3; ++i) {
        cml.recordMiss(0, 1, 1, advice);
        cml.recordMiss(0, 1, 2, advice);
    }
    cml.tick(100); // Several epochs: counters decay.
    // Two more alternation pairs should NOT reach 8 now.
    bool triggered = false;
    triggered |= cml.recordMiss(0, 1, 1, advice);
    triggered |= cml.recordMiss(0, 1, 2, advice);
    EXPECT_FALSE(triggered);
}

TEST(MemoryMap, RecolorChangesFrameKeepsMapping)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 4096, 8, 7));
    const uint64_t va = 0x00400000;
    const uint64_t pa_before = map.translate(1, va);
    uint64_t old_pfn, new_pfn;
    ASSERT_TRUE(map.recolor(1, pageNumber(va), old_pfn, new_pfn));
    EXPECT_EQ(old_pfn, pageNumber(pa_before));
    EXPECT_NE(new_pfn, old_pfn);
    const uint64_t pa_after = map.translate(1, va);
    EXPECT_EQ(pageNumber(pa_after), new_pfn);
    EXPECT_EQ(pageOffset(pa_after), pageOffset(pa_before));
}

TEST(MemoryMap, RecolorUnmappedFails)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 4096, 8, 7));
    uint64_t old_pfn, new_pfn;
    EXPECT_FALSE(map.recolor(1, 0x12345, old_pfn, new_pfn));
}

TEST(CmlSim, PairedRunsShareBaselinePlacement)
{
    // Trivial smoke: same seed means the baseline and the CML run
    // start from the same mapping, so with a huge threshold (no
    // recolors) they must agree exactly.
    CmlExperiment experiment;
    experiment.cml.alternationThreshold = 1000000;
    const CmlResult r = runCml(
        pageTrace(makeSpec(SpecBenchmark::Espresso), 30000),
        experiment);
    EXPECT_EQ(r.recolors, 0u);
    EXPECT_DOUBLE_EQ(r.cpiBaseline, r.cpiWithCml);
}

TEST(CmlSim, RecoloringBoundedAndAccounted)
{
    CmlExperiment experiment;
    experiment.cache = CacheConfig{16 * 1024, 1, 32};
    const CmlResult r = runCml(
        pageTrace(makeIbs(IbsBenchmark::Gs, OsType::Mach), 60000),
        experiment);
    EXPECT_DOUBLE_EQ(
        r.cpiRecolorOverhead,
        static_cast<double>(r.recolors) *
            experiment.cml.remapCostCycles / 60000.0);
}

} // namespace
} // namespace ibs
