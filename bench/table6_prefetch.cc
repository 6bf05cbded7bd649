/**
 * @file
 * Reproduces Table 6: sequential prefetch-on-miss. L1 CPIinstr of an
 * 8-KB direct-mapped I-cache for line sizes {16, 32, 64} bytes and
 * prefetch depths {0..3}, with a 16 byte/cycle, 6-cycle-latency L2
 * interface. Execution model: the processor stalls until the miss
 * and all prefetches have returned (no bypass).
 *
 * Paper values (IBS average):
 *            16B     32B     64B
 *   0        0.439   0.335   0.297
 *   1        0.305   0.271   --
 *   2        0.270   --      --
 *   3        0.260   --      --
 * Headline shape: 16B + 3 prefetched lines (0.260) beats a plain
 * 64-byte line (0.297) even though both transfer 64 bytes.
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

    BenchReport report("table6_prefetch");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    std::vector<FetchConfig> grid;
    std::vector<std::string> labels;
    for (uint32_t pf = 0; pf <= 3; ++pf) {
        for (uint32_t line : {16u, 32u, 64u}) {
            FetchConfig c;
            c.l1 = CacheConfig{8 * 1024, 1, line};
            c.l1Fill = MemoryTiming{6, 16};
            c.prefetchLines = pf;
            grid.push_back(c);
            labels.push_back("pf" + std::to_string(pf) + "_line" +
                             std::to_string(line) + "B");
        }
    }
    const SweepResult result = runSweep(suite, grid);
    report.addSweep("prefetch", suite, grid, result, labels);

    TextTable table("Table 6: Prefetching (L1 CPIinstr, IBS avg, "
                    "8KB DM, L1-L2 16B/cyc @ 6cyc)");
    table.setHeader({"Prefetch lines", "16B line", "32B line",
                     "64B line"});

    size_t cell = 0;
    for (uint32_t pf = 0; pf <= 3; ++pf) {
        std::vector<std::string> row = {TextTable::num(uint64_t{pf})};
        for (int l = 0; l < 3; ++l)
            row.push_back(
                TextTable::num(result.suite(cell++).cpiInstr()));
        table.addRow(row);
    }
    std::cout << table.render();
    std::cout << "\npaper:  pf=0: 0.439/0.335/0.297  pf=1: "
                 "0.305/0.271/--  pf=2: 0.270  pf=3: 0.260\n"
                 "shape check: 16B+3pf should beat a plain 64B "
                 "line.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
