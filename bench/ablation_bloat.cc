/**
 * @file
 * Ablation: the code-bloat claims of §4.2, isolated one source at a
 * time (8-KB direct-mapped, 32-byte lines):
 *
 *  - maintainability: groff (C++) vs nroff (C) on the same input —
 *    paper: groff MPI ~60% higher;
 *  - functionality: IBS gcc 2.6 vs SPEC gcc — paper: ~15% higher;
 *  - OS structure: each workload under Mach 3.0 vs Ultrix 3.1 —
 *    paper: suite average ~35% higher under Mach;
 *  - portability: the Mach user task carries the dynamically-linked
 *    BSD API-emulation library — compared here by running the user
 *    component alone under both builds.
 *
 * Each group of workloads below is one sweep of one L2-less blocking
 * config: with no L2, prefetch, bypass or stream buffer, the engine
 * misses exactly where a bare cache does.
 */

#include <iostream>
#include <vector>

#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

BenchReport g_report("ablation_bloat");

/** MPI per 100 instructions of each of `specs` in the 8-KB L1, in
 *  order; the sweep's cells go into the report under `grid`. */
std::vector<double>
mpiOf(const std::vector<WorkloadSpec> &specs, uint64_t n,
      const std::string &grid)
{
    const SuiteTraces suite(specs, n);
    FetchConfig config;
    config.l1 = CacheConfig{8 * 1024, 1, 32};
    const std::vector<FetchConfig> configs = {config};
    const SweepResult result = runSweep(suite, configs);
    g_report.addSweep(grid, suite, configs, result);
    std::vector<double> mpi;
    for (size_t w = 0; w < suite.count(); ++w)
        mpi.push_back(result.cell(0, w).mpi100());
    return mpi;
}

WorkloadSpec
userOnly(WorkloadSpec spec)
{
    ComponentParams user = spec.components[static_cast<size_t>(
        spec.findComponent(ComponentKind::User))];
    user.executionShare = 100;
    spec.components = {user};
    spec.name += ".user-only";
    return spec;
}

} // namespace

int
main()
{
    using namespace ibs;
    const uint64_t n = benchInstructions();

    TextTable t1("Bloat source: object-oriented rewrite "
                 "(maintainability)");
    t1.setHeader({"workload", "MPI", "ratio"});
    const std::vector<double> rewrite = mpiOf(
        {makeIbs(IbsBenchmark::Nroff, OsType::Mach),
         makeIbs(IbsBenchmark::Groff, OsType::Mach)},
        n, "rewrite");
    const double nroff = rewrite[0], groff = rewrite[1];
    t1.addRow({"nroff (C)", TextTable::num(nroff, 2), "1.00"});
    t1.addRow({"groff (C++)", TextTable::num(groff, 2),
               TextTable::num(groff / nroff, 2)});
    std::cout << t1.render()
              << "paper: groff ~1.6x nroff (6.51 vs 3.99)\n\n";

    TextTable t2("Bloat source: feature growth (functionality)");
    t2.setHeader({"workload", "MPI", "ratio"});
    const std::vector<double> features = mpiOf(
        {userOnly(makeSpec(SpecBenchmark::Gcc)),
         userOnly(makeIbs(IbsBenchmark::Gcc, OsType::Ultrix))},
        n, "features");
    const double gcc_spec = features[0], gcc_ibs = features[1];
    t2.addRow({"gcc 1.35 (SPEC)", TextTable::num(gcc_spec, 2),
               "1.00"});
    t2.addRow({"gcc 2.6 (IBS)", TextTable::num(gcc_ibs, 2),
               TextTable::num(gcc_ibs / gcc_spec, 2)});
    std::cout << t2.render()
              << "paper: newer gcc ~1.15x the SPEC gcc\n\n";

    TextTable t3("Bloat source: OS structure (maintainability) — "
                 "Mach 3.0 vs Ultrix 3.1");
    t3.setHeader({"workload", "Ultrix MPI", "Mach MPI", "ratio"});
    const std::vector<double> ultrix =
        mpiOf(ibsSuite(OsType::Ultrix), n, "os_structure");
    const std::vector<double> mach =
        mpiOf(ibsSuite(OsType::Mach), n, "os_structure");
    double mach_sum = 0, ultrix_sum = 0;
    for (size_t i = 0; i < ultrix.size(); ++i) {
        const double u = ultrix[i];
        const double m = mach[i];
        mach_sum += m;
        ultrix_sum += u;
        t3.addRow({benchmarkName(allIbsBenchmarks()[i]),
                   TextTable::num(u, 2), TextTable::num(m, 2),
                   TextTable::num(m / u, 2)});
    }
    t3.addRule();
    t3.addRow({"average", TextTable::num(ultrix_sum / 8, 2),
               TextTable::num(mach_sum / 8, 2),
               TextTable::num(mach_sum / ultrix_sum, 2)});
    std::cout << t3.render()
              << "paper: Mach average ~1.35x Ultrix (4.79 vs "
                 "3.52)\n\n";

    TextTable t4("Bloat source: API emulation (portability) — user "
                 "task alone");
    t4.setHeader({"workload", "Ultrix build", "Mach build (+emul "
                  "lib)", "ratio"});
    const std::vector<IbsBenchmark> emulated = {
        IbsBenchmark::Gcc, IbsBenchmark::Gs, IbsBenchmark::Verilog};
    std::vector<WorkloadSpec> emul_specs;
    for (IbsBenchmark b : emulated) {
        emul_specs.push_back(userOnly(makeIbs(b, OsType::Ultrix)));
        emul_specs.push_back(userOnly(makeIbs(b, OsType::Mach)));
    }
    const std::vector<double> emul_mpi =
        mpiOf(emul_specs, n, "api_emulation");
    for (size_t i = 0; i < emulated.size(); ++i) {
        const double u = emul_mpi[2 * i];
        const double m = emul_mpi[2 * i + 1];
        t4.addRow({benchmarkName(emulated[i]), TextTable::num(u, 2),
                   TextTable::num(m, 2), TextTable::num(m / u, 2)});
    }
    std::cout << t4.render()
              << "paper: part of the Mach/Ultrix gap is the "
                 "emulation library linked into each task.\n";

    g_report.meta().set("instructions_per_workload",
                        Json::number(n));
    g_report.write();
    return 0;
}
