/**
 * @file
 * Reproduces Figure 6: L1 CPIinstr versus L1 line size for L1-L2
 * transfer bandwidths of 4-64 bytes/cycle (8-KB direct-mapped L1,
 * 6-cycle-latency L2, processor waits for the whole line to refill).
 *
 * Paper shape: each bandwidth has an optimal line size that grows
 * with bandwidth (the black symbols in the figure); gains diminish
 * past 16-32 bytes/cycle.
 */

#include <iostream>
#include <limits>

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

    BenchReport report("fig6_bandwidth");
    const uint64_t n = benchInstructions(1000000);
    SuiteTraces suite(ibsSuite(OsType::Mach), n);

    const std::vector<uint32_t> bandwidths = {4, 8, 16, 32, 64};
    const std::vector<uint32_t> lines = {4, 8, 16, 32, 64, 128, 256};

    TextTable table("Figure 6: L1 CPIinstr vs line size and L1-L2 "
                    "bandwidth (IBS avg, 8KB DM, 6cyc L2)");
    std::vector<std::string> header = {"line"};
    for (uint32_t bw : bandwidths)
        header.push_back(std::to_string(bw) + " B/cyc");
    table.setHeader(header);

    std::vector<FetchConfig> configs;
    std::vector<std::string> labels;
    configs.reserve(lines.size() * bandwidths.size());
    for (uint32_t line : lines) {
        for (uint32_t bw : bandwidths) {
            FetchConfig c;
            c.l1 = CacheConfig{8 * 1024, 1, line};
            c.l1Fill = MemoryTiming{6, bw};
            configs.push_back(c);
            labels.push_back("line" + std::to_string(line) + "B_bw" +
                             std::to_string(bw) + "Bcyc");
        }
    }
    const SweepResult result = runSweep(suite, configs);
    report.addSweep("line_x_bandwidth", suite, configs, result,
                    labels);
    std::vector<FetchStats> stats;
    stats.reserve(configs.size());
    for (size_t c = 0; c < configs.size(); ++c)
        stats.push_back(result.suite(c));

    std::vector<double> best(bandwidths.size(),
                             std::numeric_limits<double>::max());
    std::vector<uint32_t> best_line(bandwidths.size(), 0);
    std::vector<std::vector<double>> grid;
    size_t cell = 0;
    for (uint32_t line : lines) {
        std::vector<double> row;
        for (size_t bi = 0; bi < bandwidths.size(); ++bi) {
            const double cpi = stats[cell++].cpiInstr();
            row.push_back(cpi);
            if (cpi < best[bi]) {
                best[bi] = cpi;
                best_line[bi] = line;
            }
        }
        grid.push_back(row);
    }
    for (size_t li = 0; li < lines.size(); ++li) {
        std::vector<std::string> row = {std::to_string(lines[li]) +
                                        "B"};
        for (double cpi : grid[li])
            row.push_back(TextTable::num(cpi));
        table.addRow(row);
    }
    std::cout << table.render() << "\noptimal line per bandwidth: ";
    for (size_t bi = 0; bi < bandwidths.size(); ++bi)
        std::cout << bandwidths[bi] << "B/cyc->" << best_line[bi]
                  << "B (" << TextTable::num(best[bi]) << ")  ";
    std::cout << "\npaper shape: optimum grows with bandwidth; "
                 "diminishing returns past 16-32 B/cyc.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
