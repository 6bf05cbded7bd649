/**
 * @file
 * Reproduces Table 4: per-workload MPI of the IBS suite in an 8-KB
 * direct-mapped I-cache with 32-byte lines (Mach 3.0), with the
 * execution-time breakdown across workload components, plus the
 * suite averages under Mach, Ultrix and for SPEC92.
 *
 * Each suite is one sweep of one L2-less blocking config: with no
 * L2, prefetch, bypass or stream buffer, the engine misses exactly
 * where a bare cache does, so each cell's l1Misses is the table's
 * miss count. The component shares are per-ASID instruction counts
 * of the run trace that cell replayed.
 *
 * Paper values (MPI per 100 instructions): mpeg_play 4.28,
 * jpeg_play 2.39, gs 5.15, verilog 5.28, gcc 4.69, sdet 6.05,
 * nroff 3.99, groff 6.51; averages 4.79 (Mach), 3.52 (Ultrix),
 * 1.10 (SPEC92 per Gee et al.).
 */

#include <iostream>
#include <map>
#include <vector>

#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

const char *
kindName(ComponentKind k)
{
    switch (k) {
    case ComponentKind::User: return "user_pct";
    case ComponentKind::Kernel: return "kernel_pct";
    case ComponentKind::BsdServer: return "bsd_pct";
    case ComponentKind::XServer: return "x_pct";
    }
    return "other_pct";
}

struct Row
{
    double mpi = 0;
    std::map<ComponentKind, double> share; ///< Percent of instructions.
};

/** Percent of `trace`'s instructions issued by each component kind
 *  of `spec`, from the runs' ASIDs. */
std::map<ComponentKind, double>
componentShares(const WorkloadSpec &spec, const RunTrace &trace)
{
    std::map<Asid, ComponentKind> kind_of;
    for (const auto &cp : spec.components)
        kind_of[cp.asid] = cp.kind;
    std::map<Asid, uint64_t> per_asid;
    for (const FetchRun &run : trace.runs)
        per_asid[run.asid] += run.count;

    std::map<ComponentKind, double> share;
    for (const auto &[asid, count] : per_asid)
        share[kind_of[asid]] = 100.0 * static_cast<double>(count) /
            static_cast<double>(trace.instructions);
    return share;
}

/** One row per workload of `specs`, all from one sweep; each cell
 *  also goes into the report under `grid`. */
std::vector<Row>
measure(BenchReport &report, const std::vector<WorkloadSpec> &specs,
        uint64_t n, const std::string &grid)
{
    const SuiteTraces suite(specs, n);
    FetchConfig config;
    config.l1 = CacheConfig{8 * 1024, 1, 32, Replacement::LRU};
    const SweepResult result = runSweep(suite, {config});

    std::vector<Row> rows;
    for (size_t w = 0; w < suite.count(); ++w) {
        const FetchStats &s = result.cell(0, w);
        Row row;
        row.mpi = s.mpi100();
        row.share = componentShares(
            specs[w], suite.runTrace(w, config.l1.lineBytes));
        Json stats = Json::object()
            .set("instructions", Json::number(s.instructions))
            .set("l1_misses", Json::number(s.l1Misses))
            .set("mpi100", Json::number(row.mpi));
        for (const auto &[kind, pct] : row.share)
            stats.set(kindName(kind), Json::number(pct));
        report.addCell(suite.name(w), toJson(config), std::move(stats),
                       result.timing(0, w).wallSeconds, s.instructions,
                       grid);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("table4_ibs_mpi");
    const uint64_t n = benchInstructions();

    TextTable table("Table 4: Detailed I-cache Performance of the "
                    "IBS Workloads (8KB DM, 32B lines)");
    table.setHeader({"OS", "Application", "MPI", "User%", "Kernel%",
                     "BSD%", "X%"});

    const std::vector<Row> mach =
        measure(report, ibsSuite(OsType::Mach), n, "ibs_mach");
    double mach_sum = 0;
    for (size_t i = 0; i < mach.size(); ++i) {
        const Row &row = mach[i];
        mach_sum += row.mpi;
        auto pct = [&](ComponentKind k) {
            auto it = row.share.find(k);
            return it == row.share.end()
                ? std::string("0")
                : TextTable::num(it->second, 0);
        };
        table.addRow({"Mach 3.0", benchmarkName(allIbsBenchmarks()[i]),
                      TextTable::num(row.mpi, 2),
                      pct(ComponentKind::User),
                      pct(ComponentKind::Kernel),
                      pct(ComponentKind::BsdServer),
                      pct(ComponentKind::XServer)});
    }
    table.addRule();
    const double mach_avg =
        mach_sum / static_cast<double>(allIbsBenchmarks().size());

    double ultrix_sum = 0;
    for (const Row &row :
         measure(report, ibsSuite(OsType::Ultrix), n, "ibs_ultrix"))
        ultrix_sum += row.mpi;
    const double ultrix_avg =
        ultrix_sum / static_cast<double>(allIbsBenchmarks().size());

    double spec_sum = 0;
    for (const Row &row : measure(report, specSuite(), n, "spec92"))
        spec_sum += row.mpi;
    const double spec_avg =
        spec_sum / static_cast<double>(allSpecBenchmarks().size());

    table.addRow({"IBS Mach 3.0", "Average",
                  TextTable::num(mach_avg, 2), "", "", "", ""});
    table.addRow({"IBS Ultrix 3.1", "Average",
                  TextTable::num(ultrix_avg, 2), "", "", "", ""});
    table.addRow({"SPEC92", "Average", TextTable::num(spec_avg, 2),
                  "", "", "", ""});

    std::cout << table.render();
    std::cout << "\npaper:  4.28 / 2.39 / 5.15 / 5.28 / 4.69 / 6.05 "
                 "/ 3.99 / 6.51; averages 4.79 / 3.52 / 1.10\n"
              << "Mach/Ultrix MPI ratio: "
              << TextTable::num(mach_avg / ultrix_avg, 2)
              << " (paper: ~1.35)\n";

    report.meta()
        .set("instructions_per_workload", Json::number(n))
        .set("mach_avg_mpi100", Json::number(mach_avg))
        .set("ultrix_avg_mpi100", Json::number(ultrix_avg))
        .set("spec_avg_mpi100", Json::number(spec_avg));
    report.write();
    return 0;
}
