/**
 * @file
 * Example: an interactive-style cache design explorer.
 *
 * Sweeps any workload from the catalog over a grid of fetch-path
 * designs — cache size, associativity, line size, and the L1-L2
 * interface optimizations — and prints CPIinstr for each, so you can
 * re-run the paper's §5 design exploration on a single workload (or
 * your own parameters) from the command line.
 *
 * Usage:
 *   cache_explorer                       # gs under Mach, defaults
 *   cache_explorer verilog.mach         # by catalog name
 *   cache_explorer gcc.spec 2000000     # SPEC gcc, 2M instructions
 *
 * Catalog names: <ibs>.mach, <ibs>.ultrix (mpeg_play, jpeg_play, gs,
 * verilog, gcc, sdet, nroff, groff) and the SPEC names (eqntott,
 * espresso, gcc.spec, li, compress, sc, doduc, tomcatv). The
 * instruction count must be a positive integer; anything else prints
 * the usage line and exits 2.
 */

#include <iostream>
#include <optional>
#include <string>

#include "core/fetch_config.h"
#include "core/fetch_engine.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

std::optional<WorkloadSpec>
lookup(const std::string &name)
{
    for (IbsBenchmark b : allIbsBenchmarks()) {
        for (OsType os : {OsType::Mach, OsType::Ultrix}) {
            WorkloadSpec spec = makeIbs(b, os);
            if (spec.name == name)
                return spec;
        }
    }
    for (SpecBenchmark b : allSpecBenchmarks()) {
        WorkloadSpec spec = makeSpec(b);
        if (spec.name == name)
            return spec;
    }
    return std::nullopt;
}

double
cpiOf(const WorkloadSpec &spec, const FetchConfig &config, uint64_t n)
{
    WorkloadModel model(spec);
    FetchEngine engine(config);
    return engine.run(model, n).cpiInstr();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = "gs.mach";
    uint64_t n = 1'000'000;
    if (argc > 1)
        name = argv[1];
    if (argc > 2) {
        const std::optional<uint64_t> count = parseCount(argv[2]);
        if (!count) {
            std::cerr << "usage: " << argv[0]
                      << " [workload] [instructions]\n";
            return 2;
        }
        n = *count;
    }

    const auto spec = lookup(name);
    if (!spec) {
        std::cerr << "unknown workload: " << name << "\n";
        return 1;
    }
    std::cout << "exploring fetch designs for " << spec->name << " ("
              << n << " instructions)\n\n";

    // 1. L1 geometry under the high-performance baseline.
    {
        TextTable table("L1 geometry (CPIinstr, high-perf backing "
                        "12cyc/8B)");
        table.setHeader({"size", "1-way", "2-way", "4-way"});
        for (uint64_t kb : {4u, 8u, 16u, 32u}) {
            std::vector<std::string> row = {std::to_string(kb) +
                                            "KB"};
            for (uint32_t assoc : {1u, 2u, 4u}) {
                FetchConfig c = highPerfBaseline();
                c.l1 =
                    CacheConfig{kb * 1024, assoc, 32};
                row.push_back(TextTable::num(cpiOf(*spec, c, n)));
            }
            table.addRow(row);
        }
        std::cout << table.render() << "\n";
    }

    // 2. Adding and shaping an on-chip L2.
    {
        TextTable table("On-chip L2 (8KB DM L1; CPIinstr total)");
        table.setHeader({"L2", "DM", "8-way"});
        for (uint64_t kb : {32u, 64u, 128u}) {
            std::vector<std::string> row = {std::to_string(kb) +
                                            "KB/64B"};
            for (uint32_t assoc : {1u, 8u}) {
                const FetchConfig c = withOnChipL2(
                    highPerfBaseline(), kb * 1024, 64, assoc);
                row.push_back(TextTable::num(cpiOf(*spec, c, n)));
            }
            table.addRow(row);
        }
        std::cout << table.render() << "\n";
    }

    // 3. L1-L2 interface optimizations on the tuned design.
    {
        const FetchConfig l2 =
            withOnChipL2(highPerfBaseline(), 64 * 1024, 64, 8);
        TextTable table("L1-L2 interface (64KB 8-way L2)");
        table.setHeader({"design", "CPIinstr"});

        table.addRow({"blocking fill",
                      TextTable::num(cpiOf(*spec, l2, n))});

        FetchConfig pf = l2;
        pf.l1.lineBytes = 16;
        pf.prefetchLines = 3;
        table.addRow({"16B lines + 3-line prefetch",
                      TextTable::num(cpiOf(*spec, pf, n))});

        FetchConfig byp = pf;
        byp.bypass = true;
        table.addRow({"  + bypass buffers",
                      TextTable::num(cpiOf(*spec, byp, n))});

        FetchConfig pipe = l2;
        pipe.l1.lineBytes = 16;
        pipe.pipelined = true;
        pipe.streamBufferLines = 6;
        table.addRow({"pipelined + 6-line stream buffer",
                      TextTable::num(cpiOf(*spec, pipe, n))});
        std::cout << table.render();
    }
    return 0;
}
