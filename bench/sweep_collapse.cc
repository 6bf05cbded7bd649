/**
 * @file
 * A/B throughput of the sweep-collapsing layer (sim/collapse.h) on
 * the Figure 4 grid shape: nine configs (economy + high-performance
 * x L2 associativity {1,2,4,8}, plus the 7-cycle-L2 footnote
 * singleton) over the six-workload IBS suite.
 *
 * One measured iteration covers the whole grid. collapsed:1 is a
 * runSweep — the eight geometry variants share one L1 capture per
 * workload and replay a short miss stream — while collapsed:0 is a
 * serial SuiteTraces::runOne loop over the same cells, simulating
 * every cell in full. Both modes are warmed first so the run-trace
 * memos and miss streams exist before timing: this compares
 * steady-state sweep cost, which is what a warm server request or a
 * repeated bench run pays. The simulated work per iteration is
 * identical (one cell per (config, workload), IBS_BENCH_INSTR
 * instructions each), so fetches_per_second is directly comparable;
 * scripts/check_bench_json.sh warn-gates the ratio at 2.0 and
 * EXPERIMENTS.md "Sweep collapsing" quotes both cells.
 *
 * Single-threaded on purpose: the collapse win is algorithmic
 * (cells of work removed), and one thread keeps pool scheduling out
 * of the measurement.
 */

#include <iostream>

#include "core/fetch_config.h"
#include "sim/bench_report.h"
#include "sim/collapse.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "stats/table.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;

/** Figure 4's grid: the collapse-friendly shape this layer targets. */
std::vector<FetchConfig>
fig4Grid()
{
    FetchConfig slower =
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 8);
    slower.l1Fill.latencyCycles = 7;
    std::vector<FetchConfig> grid;
    for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
        grid.push_back(
            withOnChipL2(economyBaseline(), 64 * 1024, 64, assoc));
        grid.push_back(
            withOnChipL2(highPerfBaseline(), 64 * 1024, 64, assoc));
    }
    grid.push_back(slower);
    return grid;
}

struct ModeResult
{
    double seconds = 0.0;      ///< Total over all measured reps.
    uint64_t instructions = 0; ///< Simulated per single rep.
};

/** Simulated instructions of one pass over the grid. */
uint64_t
runGrid(bool collapsed, const SuiteTraces &suite,
        const std::vector<FetchConfig> &grid)
{
    uint64_t instructions = 0;
    if (collapsed) {
        const SweepResult result = runSweep(suite, grid, 1);
        for (size_t c = 0; c < grid.size(); ++c)
            instructions += result.suite(c).instructions;
    } else {
        for (const FetchConfig &config : grid)
            for (size_t w = 0; w < suite.count(); ++w)
                instructions += suite.runOne(w, config).instructions;
    }
    return instructions;
}

ModeResult
runMode(bool collapsed, const SuiteTraces &suite,
        const std::vector<FetchConfig> &grid, int reps)
{
    // Warm: builds the run-trace memos (both modes) and, for the
    // collapsed mode, the per-workload miss streams.
    ModeResult out;
    out.instructions = runGrid(collapsed, suite, grid);
    WallTimer timer;
    for (int r = 0; r < reps; ++r)
        runGrid(collapsed, suite, grid);
    out.seconds = timer.seconds();
    return out;
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("sweep_collapse");
    const uint64_t n = benchInstructions();
    SuiteTraces suite(ibsSuite(OsType::Mach), n);
    const std::vector<FetchConfig> grid = fig4Grid();
    const CollapsePlan plan = planCollapse(grid);
    const int reps = 3;

    const ModeResult fast = runMode(true, suite, grid, reps);
    const ModeResult slow = runMode(false, suite, grid, reps);

    const auto rate = [&](const ModeResult &m) {
        return m.seconds > 0.0
            ? static_cast<double>(m.instructions) * reps / m.seconds
            : 0.0;
    };
    const double speedup =
        fast.seconds > 0.0 ? slow.seconds / fast.seconds : 0.0;

    const Json shape =
        Json::object()
            .set("grid", Json::string("fig4_l2_assoc"))
            .set("configs", Json::number(uint64_t{grid.size()}))
            .set("workloads", Json::number(uint64_t{suite.count()}))
            .set("groups", Json::number(uint64_t{plan.groups.size()}))
            .set("singles",
                 Json::number(uint64_t{plan.singles.size()}))
            .set("reps", Json::number(uint64_t{3}));
    for (const bool collapsed : {true, false}) {
        const ModeResult &m = collapsed ? fast : slow;
        report.addCell(
            std::string("BM_CollapsedVsPerCell/collapsed:") +
                (collapsed ? "1" : "0"),
            shape,
            Json::object()
                .set("fetches_per_second", Json::number(rate(m)))
                .set("speedup_vs_per_cell",
                     Json::number(collapsed ? speedup : 1.0)),
            m.seconds / reps, m.instructions, "sweep_collapse",
            collapsed ? "collapsed" : "per_cell");
    }

    TextTable table("Sweep collapsing: warm fig4-shape sweep, "
                    "1 thread, " +
                    std::to_string(reps) + " reps");
    table.setHeader(
        {"mode", "wall s/rep", "sim instr/s", "speedup"});
    table.addRow({"per-cell (serial runOne loop)",
                  TextTable::num(slow.seconds / reps),
                  TextTable::num(rate(slow)), "1.00"});
    table.addRow({"collapsed (default)",
                  TextTable::num(fast.seconds / reps),
                  TextTable::num(rate(fast)),
                  TextTable::num(speedup)});
    std::cout << table.render();
    std::cout << "\ncollapse plan: " << plan.groups.size()
              << " group(s) + " << plan.singles.size()
              << " per-cell single(s) over " << grid.size()
              << " configs\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
