/**
 * @file
 * Ablation (§2 related work, [Baer87/Baer88]): what the inclusion
 * property costs in the paper's two-level design. The 8-KB L1 under
 * a 64-KB L2: inclusive hierarchies back-invalidate L1 lines on L2
 * evictions, so L2 conflicts leak into the L1. We report L1 and L2
 * misses per 100 instructions for the IBS average, inclusive vs
 * non-inclusive, across L2 associativities (associativity reduces L2
 * evictions of live lines, shrinking the inclusion tax).
 *
 * Both hierarchies replay each workload's 32-B run trace, one
 * reference per instruction.
 */

#include <iostream>

#include "cache/hierarchy.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_inclusion");
    const uint64_t n = benchInstructions(800000);
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    TextTable table("Ablation: inclusion tax in the 8KB/64KB "
                    "hierarchy (IBS avg, per 100 instructions)");
    table.setHeader({"L2 assoc", "L1 MPI (non-incl)",
                     "L1 MPI (inclusive)", "back-invalidations",
                     "L2 MPI"});

    for (uint32_t assoc : {1u, 2u, 8u}) {
        uint64_t n_total = 0;
        uint64_t l1_ni = 0, l1_in = 0, backs = 0, l2m = 0;
        for (size_t i = 0; i < suite.count(); ++i) {
            WallTimer cell_timer;
            CacheHierarchy ni(
                CacheConfig{8 * 1024, 1, 32, Replacement::LRU},
                CacheConfig{64 * 1024, assoc, 64, Replacement::LRU},
                false);
            CacheHierarchy incl(
                CacheConfig{8 * 1024, 1, 32, Replacement::LRU},
                CacheConfig{64 * 1024, assoc, 64, Replacement::LRU},
                true);
            const RunTrace &trace = suite.runTrace(i, 32);
            for (const FetchRun &run : trace.runs) {
                uint64_t vaddr = run.startVaddr;
                for (uint32_t k = 0; k < run.count;
                     ++k, vaddr += kInstrBytes) {
                    ni.access(vaddr);
                    incl.access(vaddr);
                }
            }
            const uint64_t instrs = trace.instructions;
            const Json config = Json::object()
                .set("l1", toJson(CacheConfig{8 * 1024, 1, 32,
                                              Replacement::LRU}))
                .set("l2", toJson(CacheConfig{64 * 1024, assoc, 64,
                                              Replacement::LRU}));
            const Json stats = Json::object()
                .set("instructions", Json::number(instrs))
                .set("l1_misses_noninclusive",
                     Json::number(ni.l1Misses()))
                .set("l1_misses_inclusive",
                     Json::number(incl.l1Misses()))
                .set("back_invalidations",
                     Json::number(incl.backInvalidations()))
                .set("l2_misses_inclusive",
                     Json::number(incl.l2Misses()));
            report.addCell(suite.name(i), config, stats,
                           cell_timer.seconds(), instrs,
                           "inclusion",
                           std::to_string(assoc) + "way");
            n_total += instrs;
            l1_ni += ni.l1Misses();
            l1_in += incl.l1Misses();
            backs += incl.backInvalidations();
            l2m += incl.l2Misses();
        }
        const double scale = 100.0 / static_cast<double>(n_total);
        table.addRow({
            std::to_string(assoc) + "-way",
            TextTable::num(l1_ni * scale, 3),
            TextTable::num(l1_in * scale, 3),
            TextTable::num(backs * scale, 3),
            TextTable::num(l2m * scale, 3),
        });
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: inclusion adds L1 misses via "
                 "back-invalidation, most under a\ndirect-mapped L2; "
                 "associativity shrinks the tax — one more reason "
                 "for the\npaper's associative-L2 recommendation.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
