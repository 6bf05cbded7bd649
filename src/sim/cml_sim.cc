/**
 * @file
 * CML experiment driver implementation.
 */

#include "sim/cml_sim.h"

#include "cache/cache.h"
#include "sim/tapeworm.h"
#include "vm/address_space.h"
#include "vm/page.h"

namespace ibs {

CmlResult
runCml(const RunTrace &trace, const CmlExperiment &experiment)
{
    CmlResult result;

    // Baseline: plain direct-mapped under the initial mapping — a
    // one-trial Tapeworm run whose allocator is seeded like the CML
    // run's below. No page moves there, so it translates per run.
    TapewormConfig baseline;
    baseline.cache = experiment.cache;
    baseline.missPenalty = experiment.missPenalty;
    baseline.policy = experiment.policy;
    baseline.frames = experiment.frames;
    baseline.trials = 1;
    result.cpiBaseline =
        runTapeworm(trace, baseline, experiment.seed).cpiInstr.mean();

    // With the CML buffer: identical initial mapping (same seed), but
    // hot conflicting pages get recolored as the buffer triggers.
    const uint64_t colors = experiment.cache.colors();
    MemoryMap map(makeAllocator(experiment.policy, experiment.frames,
                                colors, experiment.seed));
    Cache cache(experiment.cache);
    CmlBuffer cml(colors, experiment.cml);
    uint64_t misses = 0;
    uint64_t remap_cycles = 0;
    uint64_t recolors = 0;
    for (const FetchRun &run : trace.runs) {
        uint64_t vaddr = run.startVaddr;
        for (uint32_t k = 0; k < run.count; ++k, vaddr += kInstrBytes) {
            cml.tick();
            // Translated per instruction: a recolor below moves the
            // rest of this run's page to a new frame.
            const uint64_t paddr = map.translate(run.asid, vaddr);
            if (cache.access(paddr))
                continue;
            ++misses;
            CmlAdvice advice;
            if (cml.recordMiss(pageNumber(paddr) % colors, run.asid,
                               pageNumber(vaddr), advice)) {
                // The OS recolors the page: new frame, page copy,
                // and the page's old lines die in the cache.
                uint64_t old_pfn, new_pfn;
                if (map.recolor(advice.asid, advice.vpn, old_pfn,
                                new_pfn)) {
                    const uint64_t old_base = makeAddr(old_pfn, 0);
                    for (uint64_t off = 0; off < PAGE_SIZE;
                         off += experiment.cache.lineBytes)
                        cache.invalidate(old_base + off);
                    remap_cycles += experiment.cml.remapCostCycles;
                    ++recolors;
                }
            }
        }
    }
    // Count only recolors the OS could act on (kseg0 kernel pages
    // are not remappable and produce no overhead).
    const double n = static_cast<double>(trace.instructions);
    result.recolors = recolors;
    result.cpiRecolorOverhead = static_cast<double>(remap_cycles) / n;
    result.cpiWithCml = static_cast<double>(misses) / n *
        experiment.missPenalty + result.cpiRecolorOverhead;
    return result;
}

} // namespace ibs
