/**
 * @file
 * Reproduces Figure 5: run-to-run variability of CPIinstr in
 * physically-indexed I-caches caused by OS page-mapping decisions,
 * measured Tapeworm-style with 5 trials per point. Cache sizes 4 KB
 * to 1 MB, associativities 1/2/4, for two highly-variable IBS
 * workloads (verilog, gs) and two stable SPEC workloads (eqntott,
 * espresso).
 *
 * Paper shape: variability (one standard deviation of CPIinstr) is
 * workload- and size-dependent, peaks for IBS workloads at mid cache
 * sizes, is near zero for eqntott/espresso, and small associativity
 * strongly damps it — the argument for associative L2s over CML
 * buffers.
 *
 * Each workload is generated once, as its page trace (runs cut at
 * 4-KB pages, each tagged with its ASID), and all 27 cells of its
 * table replay it: 135 trials, each translating once per run and
 * probing once per cache-line piece.
 */

#include <iostream>

#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/tapeworm.h"
#include "stats/table.h"
#include "vm/page.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace {

using namespace ibs;

void
sweep(const std::string &name, const WorkloadSpec &spec, uint64_t n,
      BenchReport &report)
{
    WorkloadModel model(spec);
    const RunTrace trace = generateRunTrace(model, PAGE_SIZE, n);
    TextTable table("Figure 5: std dev of CPIinstr — " + name);
    table.setHeader({"I-cache size", "1-way", "2-way", "4-way"});
    for (uint64_t kb : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u,
                        1024u}) {
        std::vector<std::string> row = {std::to_string(kb) + "KB"};
        for (uint32_t assoc : {1u, 2u, 4u}) {
            TapewormConfig config;
            config.cache =
                CacheConfig{kb * 1024, assoc, 32};
            config.missPenalty = 7;
            config.trials = 5;
            config.policy = PagePolicy::Random;
            WallTimer cell_timer;
            const TapewormResult r = runTapeworm(trace, config);
            row.push_back(TextTable::num(r.cpiInstr.stddev(), 4));

            const Json config_json = Json::object()
                .set("cache", toJson(config.cache))
                .set("miss_penalty",
                     Json::number(uint64_t{config.missPenalty}))
                .set("trials",
                     Json::number(uint64_t{config.trials}));
            const Json stats = Json::object()
                .set("cpi_instr_mean",
                     Json::number(r.cpiInstr.mean()))
                .set("cpi_instr_stddev",
                     Json::number(r.cpiInstr.stddev()))
                .set("mpi100_mean", Json::number(r.mpi100.mean()))
                .set("mpi100_stddev",
                     Json::number(r.mpi100.stddev()));
            report.addCell(spec.name, config_json, stats,
                           cell_timer.seconds(),
                           n * config.trials, "tapeworm",
                           std::to_string(kb) + "KB_" +
                               std::to_string(assoc) + "way");
        }
        table.addRow(row);
    }
    std::cout << table.render() << "\n";
}

} // namespace

int
main()
{
    using namespace ibs;
    BenchReport report("fig5_variability");
    const uint64_t n = benchInstructions(600000);
    sweep("verilog (IBS, Mach 3.0)",
          makeIbs(IbsBenchmark::Verilog, OsType::Mach), n, report);
    sweep("gs (IBS, Mach 3.0)",
          makeIbs(IbsBenchmark::Gs, OsType::Mach), n, report);
    sweep("eqntott (SPEC)", makeSpec(SpecBenchmark::Eqntott), n,
          report);
    sweep("espresso (SPEC)", makeSpec(SpecBenchmark::Espresso), n,
          report);
    std::cout << "paper shape: IBS workloads vary strongly at some "
                 "sizes (up to ~0.05);\nSPEC's eqntott/espresso "
                 "barely vary; 2-way/4-way damp the variability.\n";

    report.meta().set("instructions_per_trial", Json::number(n));
    report.write();
    return 0;
}
