/**
 * @file
 * Reproduces Table 8: pipelined L1-L2 interface with a stream
 * buffer. The L2 accepts one request per cycle (6-cycle latency);
 * the L1 line size equals the interface bandwidth (16 or 32 bytes)
 * so a line fills in one beat. The stream buffer holds N prefetched
 * lines; lines move to the I-cache only when used; a miss in both
 * structures cancels outstanding prefetches and restarts.
 *
 * Paper values (L1 CPIinstr, IBS avg):
 *   lines:      16B/cyc   32B/cyc
 *   0           0.439     0.287
 *   1           0.267     0.186
 *   3           0.184     0.137
 *   6           0.147     0.118
 *   12          0.122     0.103
 *   18          0.114     0.099
 * Headline shape: improvement saturates around 6 lines (66%/59%
 * reduction), marginal beyond.
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

    BenchReport report("table8_streambuf");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    const std::vector<uint32_t> depths = {0, 1, 3, 6, 12, 18};
    const std::vector<uint32_t> bws = {16, 32};
    std::vector<FetchConfig> grid;
    std::vector<std::string> labels;
    grid.reserve(depths.size() * bws.size());
    for (uint32_t lines : depths) {
        for (uint32_t bw : bws) {
            FetchConfig c;
            // Line size = interface bandwidth (one beat per line).
            c.l1 = CacheConfig{8 * 1024, 1, bw};
            c.l1Fill = MemoryTiming{6, bw};
            c.pipelined = true;
            c.streamBufferLines = lines;
            grid.push_back(c);
            labels.push_back("sb" + std::to_string(lines) + "_bw" +
                             std::to_string(bw) + "Bcyc");
        }
    }
    const SweepResult result = runSweep(suite, grid);
    report.addSweep("stream_buffer", suite, grid, result, labels);
    std::vector<FetchStats> stats;
    stats.reserve(grid.size());
    for (size_t c = 0; c < grid.size(); ++c)
        stats.push_back(result.suite(c));

    TextTable table("Table 8: Pipelined System with a Stream Buffer "
                    "(L1 CPIinstr, IBS avg, 8KB DM)");
    table.setHeader({"Stream buffer lines", "16 B/cyc", "32 B/cyc"});

    size_t cell = 0;
    for (uint32_t lines : depths) {
        std::vector<std::string> row = {
            TextTable::num(uint64_t{lines})};
        for (size_t b = 0; b < bws.size(); ++b)
            row.push_back(TextTable::num(stats[cell++].cpiInstr()));
        table.addRow(row);
    }
    std::cout << table.render();
    std::cout << "\npaper: 0.439/0.287, 0.267/0.186, 0.184/0.137, "
                 "0.147/0.118, 0.122/0.103, 0.114/0.099\n"
                 "shape check: steep gains to ~6 lines, marginal "
                 "beyond.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
