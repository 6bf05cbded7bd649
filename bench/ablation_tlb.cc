/**
 * @file
 * Ablation: TLB design space under bloat. The paper's introduction
 * observes that bloated programs "use virtual memory in a more sparse
 * and fragmented manner, making their page-table entries less likely
 * to fit in TLBs" (and the authors studied this in [Nagle93/94]).
 * This bench sweeps TLB size and associativity over the IBS and SPEC
 * suites (instruction *and* data references) and reports misses per
 * 100 instructions.
 *
 * Each workload's I+D stream is generated once and every record goes
 * to all ten TLBs side by side; a (TLB, workload) cell is timed as a
 * tenth of that shared pass. After each pass the fully-associative
 * LRU TLBs must obey Mattson inclusion (a larger one never misses
 * more on the same stream); a violation aborts the run.
 *
 * Expected shape: IBS needs several times the TLB reach of SPEC for
 * equal miss rates, and low-associativity TLBs suffer under the
 * multi-address-space Mach workloads.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/registry.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "stats/table.h"
#include "tlb/tlb.h"
#include "workload/ibs.h"
#include "workload/model.h"

namespace {

using namespace ibs;

Json
tlbConfigJson(const TlbConfig &config)
{
    return Json::object()
        .set("entries", Json::number(uint64_t{config.entries}))
        .set("assoc", Json::number(uint64_t{config.assoc}));
}

/** One workload's stream replayed through every TLB config. */
struct WorkloadPass
{
    std::string name;
    uint64_t instructions = 0;
    std::vector<uint64_t> misses; ///< Per config.
    double cellSeconds = 0;       ///< The pass's time per config.
};

/**
 * Mattson inclusion on one pass: on the same stream a larger
 * fully-associative LRU TLB holds a superset of a smaller one's
 * entries, so it never misses more.
 *
 * @throws std::logic_error naming the workload, both sizes and both
 *         miss counts
 */
void
checkInclusion(const WorkloadPass &pass,
               const std::vector<TlbConfig> &configs)
{
    auto fullyAssociative = [&](size_t k) {
        return configs[k].assoc == configs[k].entries;
    };
    for (size_t a = 0; a < configs.size(); ++a) {
        for (size_t b = 0; b < configs.size(); ++b) {
            const bool b_is_larger = fullyAssociative(a) &&
                fullyAssociative(b) &&
                configs[a].entries < configs[b].entries;
            if (!b_is_larger || pass.misses[b] <= pass.misses[a])
                continue;
            throw std::logic_error(
                "TLB inclusion broken on " + pass.name + ": " +
                std::to_string(configs[b].entries) +
                "-entry fully-associative LRU TLB missed " +
                std::to_string(pass.misses[b]) + " times, the " +
                std::to_string(configs[a].entries) + "-entry one " +
                std::to_string(pass.misses[a]));
        }
    }
}

/** Run `n` instructions of each workload of `suite`, with data
 *  references, through one TLB per config. */
std::vector<WorkloadPass>
passSuite(std::vector<WorkloadSpec> suite,
          const std::vector<TlbConfig> &configs, uint64_t n,
          const std::string &grid)
{
    std::vector<WorkloadPass> passes;
    for (WorkloadSpec &spec : suite) {
        spec.data.enabled = true;
        WallTimer pass_timer;
        WorkloadModel model(spec);
        std::vector<Tlb> tlbs(configs.begin(), configs.end());
        WorkloadPass pass;
        pass.name = spec.name;
        TraceRecord rec;
        while (pass.instructions < n && model.next(rec)) {
            if (rec.isInstr())
                ++pass.instructions;
            for (Tlb &tlb : tlbs)
                tlb.access(rec.asid, rec.vaddr);
        }
        pass.cellSeconds = pass_timer.seconds() /
            static_cast<double>(configs.size());
        for (const Tlb &tlb : tlbs) {
            pass.misses.push_back(tlb.misses());
            if (obs::Registry::global().enabled())
                tlb.publishCounters(obs::Registry::global(), grid);
        }
        checkInclusion(pass, configs);
        passes.push_back(std::move(pass));
    }
    return passes;
}

/** Report config `k`'s cells and return its suite MPI*100. */
double
tlbMpi(const std::vector<WorkloadPass> &passes, size_t k,
       const TlbConfig &config, const std::string &grid,
       BenchReport &report)
{
    uint64_t misses = 0, instrs = 0;
    for (const WorkloadPass &pass : passes) {
        const uint64_t done = pass.instructions;
        const uint64_t workload_misses = pass.misses[k];
        const Json stats = Json::object()
            .set("instructions", Json::number(done))
            .set("tlb_misses", Json::number(workload_misses))
            .set("mpi100",
                 Json::number(done ? 100.0 *
                                  static_cast<double>(
                                      workload_misses) /
                                  static_cast<double>(done)
                                   : 0.0));
        report.addCell(pass.name, tlbConfigJson(config), stats,
                       pass.cellSeconds, done, grid);
        misses += workload_misses;
        instrs += done;
    }
    return 100.0 * static_cast<double>(misses) /
        static_cast<double>(instrs);
}

} // namespace

int
main()
{
    using namespace ibs;

    BenchReport report("ablation_tlb");
    const uint64_t n = benchInstructions(500000);
    std::vector<TlbConfig> configs;
    for (uint32_t entries : {16u, 32u, 64u, 128u, 256u}) {
        for (uint32_t assoc : {4u, entries})
            configs.push_back(TlbConfig{entries, assoc});
    }
    const std::vector<WorkloadPass> spec_passes =
        passSuite(specSuite(), configs, n, "spec92");
    const std::vector<WorkloadPass> ibs_passes =
        passSuite(ibsSuite(OsType::Mach), configs, n, "ibs_mach");

    TextTable table("Ablation: TLB misses per 100 instructions "
                    "(I+D references)");
    table.setHeader({"TLB", "SPEC", "IBS (Mach)"});
    for (size_t k = 0; k < configs.size(); ++k) {
        const TlbConfig &config = configs[k];
        table.addRow({
            std::to_string(config.entries) + "-entry/" +
                (config.assoc == config.entries
                     ? "full"
                     : std::to_string(config.assoc) + "-way"),
            TextTable::num(tlbMpi(spec_passes, k, config, "spec92",
                                  report), 3),
            TextTable::num(tlbMpi(ibs_passes, k, config, "ibs_mach",
                                  report), 3),
        });
    }
    std::cout << table.render();
    std::cout << "\nexpected shape: IBS needs a several-times larger "
                 "TLB than SPEC for equal miss\nrates; the R2000's "
                 "64-entry fully-associative design sits at the "
                 "knee for SPEC\nbut not for IBS.\n";

    report.meta().set("instructions_per_workload", Json::number(n));
    report.write();
    return 0;
}
