/**
 * @file
 * Ablation (§2, software-based methods): profile-guided procedure
 * placement. "Compilers can reduce conflict misses by carefully
 * placing procedures in memory with the assistance of execution-
 * profile information and through call-graph analysis [Hwu89,
 * McFarling89, Torrellas95]." The paper measures hardware remedies
 * only; this bench quantifies how much of the IBS bloat penalty a
 * placement pass could recover in the 8-KB L1:
 *
 *   - natural layout: fragmented modules, hot procedures scattered
 *     (the bloated reality the workloads model);
 *   - profile-placed: hot procedures clustered in popularity order,
 *     fragmentation gaps removed (the Pettis-Hansen-style ideal).
 *
 * Each layout of the suite is one sweep of one L2-less blocking
 * config: with no L2, prefetch, bypass or stream buffer, the engine
 * misses exactly where a bare cache does.
 *
 * Page-level OS placement (page coloring vs random) is reported for
 * the same workloads as the complementary software remedy: each
 * workload's page trace is generated once and replayed through
 * Tapeworm under all three policies.
 */

#include <iostream>
#include <vector>

#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/tapeworm.h"
#include "stats/table.h"
#include "vm/page.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace {

using namespace ibs;

BenchReport g_report("ablation_placement");

WorkloadSpec
profilePlaced(WorkloadSpec spec)
{
    for (ComponentParams &cp : spec.components) {
        cp.fragmented = false;
        cp.clusteredHot = true;
    }
    spec.name += ".placed";
    return spec;
}

/** MPI per 100 instructions of each of `specs` in the 8-KB L1, in
 *  order, from one sweep whose cells go into the report. */
std::vector<double>
mpiOf(const std::vector<WorkloadSpec> &specs, uint64_t n)
{
    const SuiteTraces suite(specs, n);
    FetchConfig config;
    config.l1 = CacheConfig{8 * 1024, 1, 32};
    const std::vector<FetchConfig> configs = {config};
    const SweepResult result = runSweep(suite, configs);
    g_report.addSweep("procedure_placement", suite, configs, result);
    std::vector<double> mpi;
    for (size_t w = 0; w < suite.count(); ++w)
        mpi.push_back(result.cell(0, w).mpi100());
    return mpi;
}

} // namespace

int
main()
{
    using namespace ibs;

    const uint64_t n = benchInstructions();

    const std::vector<WorkloadSpec> natural = ibsSuite(OsType::Mach);
    std::vector<WorkloadSpec> placed_specs;
    for (const WorkloadSpec &spec : natural)
        placed_specs.push_back(profilePlaced(spec));
    const std::vector<double> nat_mpi = mpiOf(natural, n);
    const std::vector<double> placed_mpi = mpiOf(placed_specs, n);

    TextTable table("Ablation: profile-guided procedure placement "
                    "(8KB DM, 32B lines)");
    table.setHeader({"workload", "natural MPI", "profile-placed MPI",
                     "recovered"});
    double nat_sum = 0, placed_sum = 0;
    for (size_t i = 0; i < natural.size(); ++i) {
        const double nat = nat_mpi[i];
        const double placed = placed_mpi[i];
        nat_sum += nat;
        placed_sum += placed;
        table.addRow({benchmarkName(allIbsBenchmarks()[i]),
                      TextTable::num(nat, 2),
                      TextTable::num(placed, 2),
                      TextTable::num(100.0 * (nat - placed) / nat,
                                     0) + "%"});
    }
    table.addRule();
    table.addRow({"average", TextTable::num(nat_sum / 8, 2),
                  TextTable::num(placed_sum / 8, 2),
                  TextTable::num(100.0 * (nat_sum - placed_sum) /
                                     nat_sum, 0) + "%"});
    std::cout << table.render() << "\n";

    // Complementary OS-level remedy: page placement policies in a
    // physically-indexed 32-KB cache.
    TextTable os_table("OS page placement (32KB DM physically-"
                       "indexed, CPIinstr mean over 3 trials)");
    os_table.setHeader({"workload", "random", "bin-hopping",
                        "page-coloring"});
    for (IbsBenchmark b : {IbsBenchmark::Verilog, IbsBenchmark::Gs}) {
        // One page trace serves all three policies.
        WorkloadModel model(makeIbs(b, OsType::Mach));
        const RunTrace trace =
            generateRunTrace(model, PAGE_SIZE, n / 2);
        std::vector<std::string> row = {benchmarkName(b)};
        for (PagePolicy policy : {PagePolicy::Random,
                                  PagePolicy::BinHopping,
                                  PagePolicy::PageColoring}) {
            TapewormConfig config;
            config.cache = CacheConfig{32 * 1024, 1, 32};
            config.policy = policy;
            config.trials = 3;
            WallTimer cell_timer;
            const TapewormResult r = runTapeworm(trace, config);
            row.push_back(TextTable::num(r.cpiInstr.mean()));

            const char *policy_name =
                policy == PagePolicy::Random ? "random"
                : policy == PagePolicy::BinHopping ? "bin_hopping"
                                                   : "page_coloring";
            const Json config_json = Json::object()
                .set("cache", toJson(config.cache))
                .set("policy", Json::string(policy_name))
                .set("trials",
                     Json::number(uint64_t{config.trials}));
            const Json stats = Json::object()
                .set("cpi_instr_mean",
                     Json::number(r.cpiInstr.mean()))
                .set("cpi_instr_stddev",
                     Json::number(r.cpiInstr.stddev()));
            g_report.addCell(benchmarkName(b), config_json, stats,
                             cell_timer.seconds(),
                             trace.instructions * config.trials,
                             "page_placement", policy_name);
        }
        os_table.addRow(row);
    }
    std::cout << os_table.render();
    std::cout << "\nexpected shape: placement recovers a substantial "
                 "fraction of the conflict\ncomponent (software can "
                 "fight bloat too — §2), and careful page placement\n"
                 "beats random mapping in physically-indexed "
                 "caches.\n";

    g_report.meta().set("instructions_per_workload",
                        Json::number(n));
    g_report.write();
    return 0;
}
