/**
 * @file
 * Ablation (§5.1): CML buffers vs associativity. The paper argues
 * that associative on-chip L2 caches are "an attractive alternative
 * to the recently-proposed cache miss lookaside (CML) buffers
 * [Bershad94], which detect and remove conflict misses only after
 * they begin to affect performance." This bench runs both remedies
 * on physically-indexed caches with random OS page placement:
 *
 *   - plain direct-mapped (the victim of bad placement),
 *   - direct-mapped + CML buffer with dynamic page recoloring
 *     (including the recolor/copy overhead),
 *   - 2-way set-associative (the hardware fix).
 */

#include <iostream>

#include "sim/bench_report.h"
#include "sim/cml_sim.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "stats/table.h"
#include "vm/page.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_cml");
    const uint64_t n = benchInstructions(600000);
    TextTable table("Ablation: CML buffer vs associativity "
                    "(physically-indexed, random placement)");
    table.setHeader({"workload", "cache", "DM CPIinstr",
                     "DM+CML (incl. remap)", "recolors",
                     "2-way CPIinstr"});

    for (IbsBenchmark b : {IbsBenchmark::Verilog, IbsBenchmark::Gs,
                           IbsBenchmark::Gcc}) {
        const WorkloadSpec spec = makeIbs(b, OsType::Mach);
        // One page trace serves all three sizes, with and without
        // the CML buffer and at 2 ways.
        WorkloadModel model(spec);
        const RunTrace trace = generateRunTrace(model, PAGE_SIZE, n);
        for (uint64_t kb : {16u, 32u, 64u}) {
            CmlExperiment experiment;
            experiment.cache =
                CacheConfig{kb * 1024, 1, 32, Replacement::LRU};
            WallTimer cell_timer;
            const CmlResult r = runCml(trace, experiment);

            // The 2-way reference point via a one-trial Tapeworm run
            // over the same trace.
            TapewormConfig tw;
            tw.cache = CacheConfig{kb * 1024, 2, 32,
                                   Replacement::LRU};
            tw.trials = 1;
            const TapewormResult assoc = runTapeworm(trace, tw);

            const Json config_json = Json::object()
                .set("cache", toJson(experiment.cache))
                .set("assoc_reference", toJson(tw.cache));
            const Json stats = Json::object()
                .set("cpi_baseline_dm",
                     Json::number(r.cpiBaseline))
                .set("cpi_with_cml", Json::number(r.cpiWithCml))
                .set("cpi_recolor_overhead",
                     Json::number(r.cpiRecolorOverhead))
                .set("recolors", Json::number(r.recolors))
                .set("cpi_2way",
                     Json::number(assoc.cpiInstr.mean()));
            report.addCell(spec.name, config_json, stats,
                           cell_timer.seconds(), 2 * n, "cml",
                           std::to_string(kb) + "KB");

            table.addRow({
                spec.name, std::to_string(kb) + "KB",
                TextTable::num(r.cpiBaseline),
                TextTable::num(r.cpiWithCml) + " (+" +
                    TextTable::num(r.cpiRecolorOverhead) + ")",
                TextTable::num(r.recolors),
                TextTable::num(assoc.cpiInstr.mean()),
            });
        }
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: the CML mechanism shaves only "
                 "part of the conflict CPI (most\nIBS conflicts are "
                 "not simple two-page ping-pongs) and pays per-"
                 "recolor OS\noverhead that must amortize over long "
                 "executions; 2-way associativity removes\nthe "
                 "conflicts outright with no overhead — the paper's "
                 "§5.1 argument for\nassociative on-chip L2s over "
                 "CML buffers.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
