/**
 * @file
 * Tests of the ASID-tagged run traces and the drivers that replay
 * them whole:
 *
 *  - runs from generateRunTrace, cut at 4 B, 32 B and a page, expand
 *    to exactly WorkloadModel::next's (vaddr, asid) sequence, and no
 *    run crosses a page; a test-local workload whose tasks share one
 *    text page makes the ASID cut fire;
 *  - runTapeworm over the page trace and over a 32-byte trace equals
 *    the per-instruction loop it replaced (translate and access every
 *    instruction), trial by trial, across replacement policies,
 *    associativities, line sizes and page policies.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.h"
#include "sim/tapeworm.h"
#include "trace/run_trace.h"
#include "vm/address_space.h"
#include "vm/page.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace ibs {
namespace {

/**
 * Two tasks of one tiny program: one 32-byte procedure each at the
 * same virtual base, in ASIDs 1 and 4, switching every few
 * instructions. A switch often resumes at the address right after
 * the one the other task just fetched, so only the ASID separates
 * the runs.
 */
WorkloadSpec
sharedPageSpec()
{
    ComponentParams task;
    task.procCount = 1;
    task.procMeanBytes = 32;
    task.visitMeanBytes = 4096;
    task.runMeanBytes = 4096;
    task.pLoop = 0.0;
    task.pSkip = 0.0;
    task.executionShare = 0.5;
    task.dwellMeanInstr = 3;
    WorkloadSpec spec;
    spec.name = "shared_page";
    spec.components = {task, task};
    spec.components[1].asid = 4;
    return spec;
}

/** gs under Mach plus a second instance of its user task in ASID 4:
 *  both map the same virtual text, so a translation that dropped
 *  the ASID would share their frames. */
WorkloadSpec
twoInstanceSpec()
{
    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    const int user = spec.findComponent(ComponentKind::User);
    ComponentParams second = spec.components[user];
    second.asid = 4;
    spec.components.push_back(second);
    spec.name = "gs.two_instances";
    return spec;
}

/** The first `n` instruction records of `spec`. */
std::vector<TraceRecord>
instructionRecords(const WorkloadSpec &spec, uint64_t n)
{
    WorkloadModel model(spec);
    std::vector<TraceRecord> out;
    out.reserve(n);
    TraceRecord rec;
    while (out.size() < n && model.next(rec)) {
        if (rec.isInstr())
            out.push_back(rec);
    }
    return out;
}

RunTrace
runTrace(const WorkloadSpec &spec, uint32_t line_bytes, uint64_t n)
{
    WorkloadModel model(spec);
    return generateRunTrace(model, line_bytes, n);
}

/** Generated runs must expand to `spec`'s instruction records, each
 *  run inside one line (so inside one page). */
void
expectRunsExpandToRecords(const WorkloadSpec &spec, uint64_t n)
{
    const std::vector<TraceRecord> records =
        instructionRecords(spec, n);
    ASSERT_EQ(records.size(), n) << spec.name;
    for (uint32_t line : {4u, 32u, static_cast<uint32_t>(PAGE_SIZE)}) {
        const std::string label =
            spec.name + "/line" + std::to_string(line);
        const RunTrace trace = runTrace(spec, line, n);
        EXPECT_EQ(trace.lineBytes, line) << label;
        EXPECT_EQ(trace.instructions, n) << label;
        size_t k = 0;
        for (size_t r = 0; r < trace.runs.size(); ++r) {
            const FetchRun &run = trace.runs[r];
            ASSERT_GE(run.count, 1u) << label << " run " << r;
            const uint64_t last =
                run.startVaddr + uint64_t{run.count - 1} * kInstrBytes;
            ASSERT_EQ(run.startVaddr / line, last / line)
                << label << " run " << r;
            ASSERT_EQ(pageNumber(run.startVaddr), pageNumber(last))
                << label << " run " << r;
            for (uint32_t i = 0; i < run.count; ++i, ++k) {
                ASSERT_LT(k, records.size()) << label;
                ASSERT_EQ(run.startVaddr + uint64_t{i} * kInstrBytes,
                          records[k].vaddr)
                    << label << " instruction " << k;
                ASSERT_EQ(run.asid, records[k].asid)
                    << label << " instruction " << k;
            }
        }
        EXPECT_EQ(k, records.size()) << label;
    }
}

TEST(PageTrace, RunsExpandToModelRecordsWithAsids)
{
    std::vector<WorkloadSpec> specs = ibsSuite(OsType::Mach);
    specs.push_back(makeSpec(SpecBenchmark::Gcc));
    specs.push_back(makeSpec(SpecBenchmark::Espresso));
    specs.push_back(sharedPageSpec());
    for (const WorkloadSpec &spec : specs)
        expectRunsExpandToRecords(spec, 50000);
}

TEST(PageTrace, AsidSwitchCutsAnOtherwiseSequentialRun)
{
    // The shipped workloads' tasks never share text, so only this
    // construction reaches the cut: confirm it does, many times.
    const WorkloadSpec spec = sharedPageSpec();
    const std::vector<TraceRecord> records =
        instructionRecords(spec, 20000);
    uint64_t cuts = 0;
    for (size_t k = 1; k < records.size(); ++k) {
        if (records[k].vaddr == records[k - 1].vaddr + kInstrBytes &&
            records[k].asid != records[k - 1].asid)
            ++cuts;
    }
    EXPECT_GT(cuts, 100u);

    // Every cut starts a run: a page trace holds one more run than
    // there are breaks of any kind.
    uint64_t breaks = 0;
    for (size_t k = 1; k < records.size(); ++k) {
        if (records[k].vaddr != records[k - 1].vaddr + kInstrBytes ||
            records[k].asid != records[k - 1].asid ||
            pageNumber(records[k].vaddr) !=
                pageNumber(records[k - 1].vaddr))
            ++breaks;
    }
    EXPECT_EQ(runTrace(spec, PAGE_SIZE, 20000).runs.size(), breaks + 1);
}

/**
 * The Tapeworm trial loop before run replay: one translation and
 * one Cache::access per instruction record. Returns each trial's
 * misses per 100 instructions.
 */
std::vector<double>
perInstructionMpi100(const std::vector<TraceRecord> &trace,
                     const TapewormConfig &config, uint64_t base_seed)
{
    std::vector<double> out;
    for (uint32_t trial = 0; trial < config.trials; ++trial) {
        MemoryMap map(makeAllocator(config.policy, config.frames,
                                    config.cache.colors(),
                                    base_seed + trial));
        Cache cache(config.cache);
        uint64_t misses = 0;
        for (const TraceRecord &rec : trace) {
            const uint64_t paddr = map.translate(rec.asid, rec.vaddr);
            if (!cache.access(paddr))
                ++misses;
        }
        const double n = static_cast<double>(trace.size());
        out.push_back(static_cast<double>(misses) / n * 100.0);
    }
    return out;
}

TEST(PageTrace, TapewormRunReplayEqualsPerInstructionLoop)
{
    constexpr uint64_t kInstr = 20000;
    constexpr uint64_t kSize = 16 * 1024;
    constexpr uint32_t kTrials = 2;
    constexpr uint64_t kSeed = 0x7a9e;
    const WorkloadSpec spec = twoInstanceSpec();
    const std::vector<TraceRecord> records =
        instructionRecords(spec, kInstr);
    const RunTrace page_trace = runTrace(spec, PAGE_SIZE, kInstr);
    const RunTrace line_trace = runTrace(spec, 32, kInstr);

    for (Replacement repl : {Replacement::LRU, Replacement::FIFO,
                             Replacement::Random}) {
        for (uint32_t line : {16u, 32u, 64u}) {
            for (uint32_t assoc :
                 {1u, 2u, 4u, static_cast<uint32_t>(kSize / line)}) {
                for (PagePolicy policy :
                     {PagePolicy::Random, PagePolicy::BinHopping,
                      PagePolicy::PageColoring}) {
                    TapewormConfig config;
                    config.cache = CacheConfig{kSize, assoc, line, repl};
                    config.policy = policy;
                    config.trials = kTrials;
                    const std::string label =
                        config.cache.toString() + "/" +
                        replacementName(repl) + "/" +
                        policyName(policy);
                    const std::vector<double> expected =
                        perInstructionMpi100(records, config, kSeed);
                    // Trial t of a run is seeded kSeed + t: replay it
                    // alone to compare every trial, not just moments.
                    config.trials = 1;
                    for (uint32_t t = 0; t < kTrials; ++t) {
                        EXPECT_EQ(runTapeworm(page_trace, config,
                                             kSeed + t)
                                      .mpi100.mean(),
                                  expected[t])
                            << label << " page trace, trial " << t;
                        EXPECT_EQ(runTapeworm(line_trace, config,
                                             kSeed + t)
                                      .mpi100.mean(),
                                  expected[t])
                            << label << " 32-B trace, trial " << t;
                    }
                }
            }
        }
    }
}

TEST(PageTrace, TapewormRejectsRunsThatMayCrossPages)
{
    RunTrace trace;
    trace.lineBytes = 2 * PAGE_SIZE;
    EXPECT_THROW(runTapeworm(trace, TapewormConfig{}),
                 std::invalid_argument);
    trace.lineBytes = 0;
    EXPECT_THROW(runTapeworm(trace, TapewormConfig{}),
                 std::invalid_argument);
}

} // namespace
} // namespace ibs
