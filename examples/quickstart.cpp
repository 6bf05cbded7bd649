/**
 * @file
 * Quickstart: the 30-line tour of the library.
 *
 * Builds one IBS workload (ghostscript under Mach 3.0), runs it
 * through the paper's economy baseline and through the fully
 * optimized fetch path (on-chip 8-way L2 + pipelined interface with a
 * 6-line stream buffer), and prints the CPIinstr improvement —
 * the headline story of the paper in one program.
 */

#include <iostream>

#include "core/fetch_config.h"
#include "sim/runner.h"
#include "workload/ibs.h"

int
main()
{
    using namespace ibs;

    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    constexpr uint64_t N = 2'000'000;
    // The workload's instruction stream, generated once and replayed
    // through every design below.
    const SuiteTraces traces({spec}, N);

    // 1. The economy baseline: 8-KB direct-mapped L1 filled straight
    //    from main memory (30 cycles latency, 4 bytes/cycle).
    FetchConfig base = economyBaseline();
    const FetchStats base_stats = traces.runOne(0, base);

    // 2. The optimized design the paper arrives at: 64-KB 8-way
    //    on-chip L2, then a pipelined L1-L2 interface with a 6-line
    //    stream buffer.
    FetchConfig opt = withOnChipL2(base, 64 * 1024, 64, 8);
    opt.l1.lineBytes = 16; // Line size = interface bandwidth.
    opt.l1Fill = MemoryTiming{6, 16};
    opt.pipelined = true;
    opt.streamBufferLines = 6;
    const FetchStats opt_stats = traces.runOne(0, opt);

    std::cout << "workload: " << spec.name << "\n"
              << "baseline  [" << base.toString() << "]\n"
              << "  CPIinstr = " << base_stats.cpiInstr()
              << "  (MPI = " << base_stats.mpi100()
              << " per 100 instructions)\n"
              << "optimized [" << opt.toString() << "]\n"
              << "  CPIinstr = " << opt_stats.cpiInstr()
              << "  (L1 " << opt_stats.l1Cpi()
              << " + L2 " << opt_stats.l2Cpi() << ")\n"
              << "speedup of the fetch-stall component: "
              << base_stats.cpiInstr() / opt_stats.cpiInstr()
              << "x\n";
    return 0;
}
