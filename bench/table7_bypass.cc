/**
 * @file
 * Reproduces Table 7: prefetching + bypass buffers. Same grid as
 * Table 6, but with as many bypass buffers as lines returned per
 * miss; the processor resumes as soon as the missing word arrives
 * and may fetch from the arriving lines while the refill completes.
 *
 * Paper values (with bypass):
 *            16B     32B     64B
 *   0        --      0.296   0.226
 *   1        0.218   0.224   --
 *   2        0.205   --      --
 *   3        0.181   --      --
 */

#include <iostream>

#include "core/fetch_config.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    BenchReport report("table7_bypass");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    std::vector<FetchConfig> grid;
    std::vector<std::string> labels;
    for (bool bypass : {false, true}) {
        for (uint32_t pf = 0; pf <= 3; ++pf) {
            for (uint32_t line : {16u, 32u, 64u}) {
                FetchConfig c;
                c.l1 =
                    CacheConfig{8 * 1024, 1, line};
                c.l1Fill = MemoryTiming{6, 16};
                c.prefetchLines = pf;
                c.bypass = bypass;
                grid.push_back(c);
                labels.push_back(
                    std::string(bypass ? "bypass" : "nobypass") +
                    "_pf" + std::to_string(pf) + "_line" +
                    std::to_string(line) + "B");
            }
        }
    }
    const SweepResult result = runSweep(suite, grid);
    report.addSweep("prefetch_bypass", suite, grid, result, labels);

    size_t cell = 0;
    for (bool bypass : {false, true}) {
        TextTable table(std::string("Table 7: Prefetching ") +
                        (bypass ? "with" : "without") +
                        " bypass buffers (L1 CPIinstr, IBS avg)");
        table.setHeader({"Prefetch lines", "16B line", "32B line",
                         "64B line"});
        for (uint32_t pf = 0; pf <= 3; ++pf) {
            std::vector<std::string> row = {
                TextTable::num(uint64_t{pf})};
            for (int l = 0; l < 3; ++l)
                row.push_back(
                    TextTable::num(result.suite(cell++).cpiInstr()));
            table.addRow(row);
        }
        std::cout << table.render() << "\n";
    }
    std::cout << "paper (bypass): pf=0 --/0.296/0.226; pf=1 "
                 "0.218/0.224/--; pf=2 0.205; pf=3 0.181\n"
                 "shape check: bypass strictly reduces CPIinstr at "
                 "every grid point.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
