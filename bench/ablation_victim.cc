/**
 * @file
 * Ablation: conflict-miss remedies compared. The paper argues for
 * associative on-chip L2s over after-the-fact conflict removal (CML
 * buffers, §5.1); Jouppi's victim cache is the classic hardware
 * middle ground. This bench compares, at the 8-KB L1 level, for the
 * IBS (Mach) average:
 *
 *   - plain direct-mapped,
 *   - direct-mapped + {1,2,4,8}-line victim buffer,
 *   - 2-way set-associative (same capacity).
 *
 * Metric: misses per 100 instructions (victim-buffer hits cost a
 * swap, not a fill, so they are excluded from the miss count; a
 * footnote row reports them separately).
 *
 * The plain caches (1, 2 and 8 ways) are one sweep of L2-less
 * blocking configs: with no L2, prefetch, bypass or stream buffer,
 * the engine misses exactly where a bare cache does. Each victim
 * buffer replays the 32-B run trace that sweep built, one reference
 * per instruction.
 */

#include <iostream>

#include "cache/victim.h"
#include "obs/registry.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_victim");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    TextTable table("Ablation: conflict-miss remedies at 8KB "
                    "(IBS avg, 32B lines)");
    table.setHeader({"design", "MPI*100", "victim swaps per 100"});

    std::vector<FetchConfig> plain;
    std::vector<std::string> labels;
    for (uint32_t assoc : {1u, 2u, 8u}) {
        FetchConfig config;
        config.l1 = CacheConfig{8 * 1024, assoc, 32, Replacement::LRU};
        plain.push_back(config);
        labels.push_back(std::to_string(assoc) + "way");
    }
    const SweepResult result = runSweep(suite, plain);
    report.addSweep("plain", suite, plain, result, labels);
    const auto plainMpi = [&](size_t c) {
        return TextTable::num(result.suite(c).mpi100(), 2);
    };

    table.addRow({"direct-mapped", plainMpi(0), "-"});
    for (uint32_t v : {1u, 2u, 4u, 8u}) {
        uint64_t misses = 0, swaps = 0, instrs = 0;
        const CacheConfig cfg{8 * 1024, 1, 32, Replacement::LRU};
        for (size_t i = 0; i < suite.count(); ++i) {
            WallTimer cell_timer;
            VictimCache cache(cfg, v);
            uint64_t w_misses = 0, w_swaps = 0;
            const RunTrace &trace = suite.runTrace(i, cfg.lineBytes);
            const uint64_t w_instrs = trace.instructions;
            for (const FetchRun &run : trace.runs) {
                uint64_t vaddr = run.startVaddr;
                for (uint32_t k = 0; k < run.count;
                     ++k, vaddr += kInstrBytes) {
                    const int r = cache.access(vaddr);
                    if (r == 2)
                        ++w_misses;
                    else if (r == 1)
                        ++w_swaps;
                }
            }
            const Json config = Json::object()
                .set("l1", toJson(cfg))
                .set("victim_lines", Json::number(uint64_t{v}));
            const Json stats = Json::object()
                .set("instructions", Json::number(w_instrs))
                .set("l1_misses", Json::number(w_misses))
                .set("victim_swaps", Json::number(w_swaps))
                .set("mpi100",
                     Json::number(100.0 *
                                  static_cast<double>(w_misses) /
                                  static_cast<double>(w_instrs)));
            report.addCell(suite.name(i), config, stats,
                           cell_timer.seconds(), w_instrs, "victim",
                           "victim" + std::to_string(v));
            if (obs::Registry::global().enabled())
                cache.publishCounters(obs::Registry::global(),
                                      std::to_string(v));
            misses += w_misses;
            swaps += w_swaps;
            instrs += w_instrs;
        }
        table.addRow({
            "DM + " + std::to_string(v) + "-line victim buffer",
            TextTable::num(100.0 * misses / instrs, 2),
            TextTable::num(100.0 * swaps / instrs, 2),
        });
    }
    table.addRow({"2-way set-associative", plainMpi(1), "-"});
    table.addRow({"8-way set-associative", plainMpi(2), "-"});

    std::cout << table.render();
    std::cout << "\nexpected shape: a small victim buffer removes "
                 "part of the DM conflict gap;\nreal associativity "
                 "removes it all — consistent with the paper's "
                 "preference for\nassociative L2s over "
                 "conflict-patching structures.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
