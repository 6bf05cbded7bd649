/**
 * @file
 * Tests of the ASID-tagged run traces and the drivers that replay
 * them whole:
 *
 *  - runs from generateRunTrace, cut at 4 B, 32 B and a page, expand
 *    to exactly WorkloadModel::next's (vaddr, asid) sequence, and no
 *    run crosses a page; a test-local workload whose tasks share one
 *    text page makes the ASID cut fire;
 *  - cutRunTrace from any line size to any other equals generation at
 *    the target size run for run, and SuiteTraces, which cuts every
 *    line size after a workload's first, builds the same traces
 *    whatever order (or concurrency) the line sizes are requested in;
 *  - runTapeworm over the page trace and over a 32-byte trace equals
 *    the per-instruction loop it replaced (translate and access every
 *    instruction), trial by trial, across associativities, line
 *    sizes and page policies.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "obs/trace_sink.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "stats/report.h"
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
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

/** The line sizes the cut tests convert between, 4 B to a page. */
const std::vector<uint32_t> kCutLines = {
    4, 8, 16, 32, 64, 128, 256, static_cast<uint32_t>(PAGE_SIZE)};

/** `actual` must equal `expected` run for run, ASIDs included. */
void
expectSameTrace(const RunTrace &actual, const RunTrace &expected,
                const std::string &label)
{
    EXPECT_EQ(actual.lineBytes, expected.lineBytes) << label;
    EXPECT_EQ(actual.instructions, expected.instructions) << label;
    ASSERT_EQ(actual.runs.size(), expected.runs.size()) << label;
    for (size_t r = 0; r < actual.runs.size(); ++r) {
        const FetchRun &a = actual.runs[r];
        const FetchRun &e = expected.runs[r];
        if (a.startVaddr != e.startVaddr || a.count != e.count ||
            a.asid != e.asid) {
            FAIL() << label << " run " << r << ": {" << a.startVaddr
                   << ", " << a.count << ", " << a.asid
                   << "} != {" << e.startVaddr << ", " << e.count
                   << ", " << e.asid << "}";
        }
    }
}

/** Cutting the first `n` instructions of `spec`, generated at any
 *  line size, to any other must give what generation at the target
 *  size gives, with no spare capacity. */
void
expectCutsEqualGeneration(const WorkloadSpec &spec, uint64_t n)
{
    std::vector<RunTrace> generated;
    for (uint32_t line : kCutLines)
        generated.push_back(runTrace(spec, line, n));
    for (const RunTrace &source : generated) {
        for (size_t t = 0; t < kCutLines.size(); ++t) {
            const std::string label = spec.name + "/n" +
                std::to_string(n) + "/line" +
                std::to_string(kCutLines[t]) + " from line" +
                std::to_string(source.lineBytes);
            const RunTrace cut = cutRunTrace(source, kCutLines[t]);
            expectSameTrace(cut, generated[t], label);
            EXPECT_EQ(cut.runs.capacity(), cut.runs.size()) << label;
        }
    }
}

/** A budget of `spec` that stops one instruction into a 32-B run of
 *  at least two, past instruction 5000: the last run of the trace at
 *  every line size from 32 B up is then cut short by the budget. */
uint64_t
budgetEndingMidRun(const WorkloadSpec &spec)
{
    const RunTrace full = runTrace(spec, 32, 20000);
    uint64_t n = 0;
    for (const FetchRun &run : full.runs) {
        if (n >= 5000 && run.count >= 2)
            return n + 1;
        n += run.count;
    }
    ADD_FAILURE() << spec.name << ": no 32-B run of two past 5000";
    return n;
}

TEST(PageTrace, CutFromAnyLineSizeEqualsGeneration)
{
    std::vector<WorkloadSpec> specs = ibsSuite(OsType::Mach);
    specs.push_back(makeSpec(SpecBenchmark::Gcc));
    specs.push_back(sharedPageSpec());
    for (const WorkloadSpec &spec : specs)
        expectCutsEqualGeneration(spec, 20000);
}

TEST(PageTrace, CutOfABudgetEndingMidRunEqualsGeneration)
{
    for (const WorkloadSpec &spec :
         {makeIbs(IbsBenchmark::Gs, OsType::Mach), sharedPageSpec()}) {
        const uint64_t n = budgetEndingMidRun(spec);
        // The budget's last instruction starts a run that the next
        // instruction would have continued.
        const RunTrace longer = runTrace(spec, 32, n + 1);
        ASSERT_EQ(runTrace(spec, 32, n).runs.size(), longer.runs.size())
            << spec.name;
        ASSERT_EQ(longer.runs.back().count, 2u) << spec.name;
        expectCutsEqualGeneration(spec, n);
    }
}

TEST(PageTrace, SuiteTracesCutTheSameTracesInAnyRequestOrder)
{
    const std::vector<WorkloadSpec> specs = {
        makeIbs(IbsBenchmark::Gs, OsType::Mach),
        makeSpec(SpecBenchmark::Gcc), sharedPageSpec()};
    constexpr uint64_t kInstr = 20000;
    const size_t sizes = kCutLines.size();
    // Every generation and cut is a run_trace span: count them.
    const std::string path =
        testing::TempDir() + "page_trace_suite_spans.json";
    auto prev_sink = obs::TraceEventSink::exchangeGlobal(
        std::make_unique<obs::TraceEventSink>(path));

    // Ascending: each line size is cut from the one before it.
    // Descending: the page trace is generated, and every smaller size
    // is cut from it. Concurrent: line-major, so the first requests
    // for two line sizes of one workload overlap.
    const SuiteTraces ascending(specs, kInstr);
    const SuiteTraces descending(specs, kInstr);
    const SuiteTraces concurrent(specs, kInstr);
    for (size_t w = 0; w < specs.size(); ++w) {
        for (size_t l = 0; l < sizes; ++l) {
            ascending.runTrace(w, kCutLines[l]);
            descending.runTrace(w, kCutLines[sizes - 1 - l]);
        }
    }
    parallelFor(specs.size() * sizes, 4, [&](size_t k) {
        concurrent.runTrace(k % specs.size(), kCutLines[k / specs.size()]);
    });

    // Restoring the previous sink destroys ours, which writes the file.
    obs::TraceEventSink::exchangeGlobal(std::move(prev_sink));
    std::map<std::string, size_t> spans;
    const Json events = Json::parse(readFile(path)).at("traceEvents");
    for (size_t e = 0; e < events.size(); ++e) {
        const std::string name = events.at(e).at("name").asString();
        if (events.at(e).at("cat").asString() == "run_trace")
            ++spans[name.substr(0, name.find(' '))];
    }
    std::remove(path.c_str());
    // One generation per workload and suite, even when requests race;
    // every other line size is a cut.
    EXPECT_EQ(spans["stream"], 3 * specs.size());
    EXPECT_EQ(spans["cut"], 3 * specs.size() * (sizes - 1));

    for (const SuiteTraces *suite : {&ascending, &descending, &concurrent})
        EXPECT_EQ(suite->runTracesBuilt(), specs.size() * sizes);
    for (size_t w = 0; w < specs.size(); ++w) {
        for (uint32_t line : kCutLines) {
            const RunTrace generated = runTrace(specs[w], line, kInstr);
            const std::string label =
                specs[w].name + "/line" + std::to_string(line);
            expectSameTrace(ascending.runTrace(w, line), generated,
                            "ascending " + label);
            expectSameTrace(descending.runTrace(w, line), generated,
                            "descending " + label);
            expectSameTrace(concurrent.runTrace(w, line), generated,
                            "concurrent " + label);
        }
    }
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

    for (uint32_t line : {16u, 32u, 64u}) {
        for (uint32_t assoc :
             {1u, 2u, 4u, static_cast<uint32_t>(kSize / line)}) {
            for (PagePolicy policy :
                 {PagePolicy::Random, PagePolicy::BinHopping,
                  PagePolicy::PageColoring}) {
                TapewormConfig config;
                config.cache = CacheConfig{kSize, assoc, line};
                config.policy = policy;
                config.trials = kTrials;
                const std::string label =
                    config.cache.toString() + "/" + policyName(policy);
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
