/**
 * @file
 * Example: inspect the statistical behaviour of the reconstructed
 * workloads — footprints, per-workload MPI across cache sizes and
 * line sizes, and context-switch rates.
 *
 * This doubles as the calibration harness: the MPI columns it prints
 * correspond directly to Table 4 and Figure 1 of the paper.
 *
 * Usage: workload_inspector [instructions-per-workload]
 *
 * The count must be a positive integer; anything else prints the
 * usage line and exits 2.
 */

#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

/** MPI (per 100 instructions) of one spec in one cache geometry. */
double
measureMpi(const WorkloadSpec &spec, uint64_t instructions,
           const CacheConfig &cache_config)
{
    WorkloadModel model(spec);
    Cache cache(cache_config);
    TraceRecord rec;
    uint64_t n = 0;
    uint64_t misses = 0;
    while (n < instructions && model.next(rec)) {
        if (!rec.isInstr())
            continue;
        ++n;
        if (!cache.access(rec.vaddr))
            ++misses;
    }
    return n ? 100.0 * static_cast<double>(misses) /
               static_cast<double>(n)
             : 0.0;
}

void
inspectSuite(const std::string &title,
             const std::vector<WorkloadSpec> &suite,
             uint64_t instructions)
{
    const std::vector<uint64_t> sizes_kb = {8, 16, 32, 64, 128, 256};
    const std::vector<uint32_t> lines = {16, 32, 64};

    TextTable table(title);
    std::vector<std::string> header = {"workload", "footprint(KB)",
                                       "switches/1k"};
    for (uint64_t kb : sizes_kb)
        header.push_back(std::to_string(kb) + "K/32B");
    for (uint32_t lb : lines)
        header.push_back("8K/" + std::to_string(lb) + "B");
    table.setHeader(header);

    std::vector<double> avg(sizes_kb.size() + lines.size(), 0.0);
    for (const WorkloadSpec &spec : suite) {
        // Footprint and switch-rate diagnostics.
        WorkloadModel model(spec);
        TraceRecord rec;
        for (uint64_t i = 0; i < 200000 && model.next(rec); ++i) {
        }
        uint64_t footprint = 0;
        for (size_t c = 0; c < spec.components.size(); ++c)
            footprint += model.layout(c).codeBytes();
        const double switches_per_1k = 1000.0 *
            static_cast<double>(model.contextSwitches()) /
            static_cast<double>(model.instructions());

        std::vector<std::string> row = {
            spec.name, std::to_string(footprint / 1024),
            TextTable::num(switches_per_1k, 2)};
        size_t col = 0;
        for (uint64_t kb : sizes_kb) {
            const double mpi = measureMpi(
                spec, instructions,
                CacheConfig{kb * 1024, 1, 32, Replacement::LRU});
            avg[col++] += mpi;
            row.push_back(TextTable::num(mpi, 2));
        }
        for (uint32_t lb : lines) {
            const double mpi = measureMpi(
                spec, instructions,
                CacheConfig{8 * 1024, 1, lb, Replacement::LRU});
            avg[col++] += mpi;
            row.push_back(TextTable::num(mpi, 2));
        }
        table.addRow(row);
    }

    table.addRule();
    std::vector<std::string> avg_row = {"AVERAGE", "", ""};
    for (double a : avg)
        avg_row.push_back(TextTable::num(
            a / static_cast<double>(suite.size()), 2));
    table.addRow(avg_row);

    std::cout << table.render() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t instructions = 1'000'000;
    if (argc > 1) {
        const std::optional<uint64_t> count = ibs::parseCount(argv[1]);
        if (!count) {
            std::cerr << "usage: " << argv[0]
                      << " [instructions-per-workload]\n";
            return 2;
        }
        instructions = *count;
    }

    inspectSuite("IBS suite under Mach 3.0",
                 ibs::ibsSuite(ibs::OsType::Mach), instructions);
    inspectSuite("IBS suite under Ultrix 3.1",
                 ibs::ibsSuite(ibs::OsType::Ultrix), instructions);
    inspectSuite("SPEC benchmarks", ibs::specSuite(), instructions);
    return 0;
}
