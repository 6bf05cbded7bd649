/**
 * @file
 * Sweep collapsing: share one L1 front end across a grid's L2
 * variants.
 *
 * Every figure/table of the paper sweeps cache geometry, and most
 * grid cells differ only in the L2 — fig3 (line size x size), fig4
 * (associativity), the catalog's `_l2` classes. For a *blocking*
 * fetch configuration with no prefetch, bypass or stream buffer, the
 * L1 front end is completely independent of L2 state: every L1 miss
 * consults the L2 exactly once (FetchEngine::missBlocking), the L2's
 * answer only adds stall cycles, and neither the L1 contents nor the
 * miss order can change with L2 geometry. The whole group therefore
 * needs the expensive instruction-stream replay once:
 *
 *  1. partition the grid into groups of configs identical except for
 *     L2 geometry and L2 fill timing (collapseKey / planCollapse);
 *  2. run the shared front end once per (group, workload) with a
 *     perfect L2, capturing the L1-refill reference stream as a
 *     run-encoded miss trace (SuiteTraces::missStream) — 5-50x
 *     shorter than the instruction stream;
 *  3. replay each L2 variant over the short stream and derive the
 *     full FetchStats arithmetically (runCollapsedGroup), exactly:
 *
 *       l2Accesses   = misses in the stream
 *       l2Misses     = replayed L2 misses
 *       stallCyclesL2 = l2Misses * l2Fill.fillCycles(l2.lineBytes)
 *       cycles       = capture cycles + stallCyclesL2
 *
 *     with every other field equal to the capture run's (all
 *     prefetch/bypass/stream-buffer counters are structurally zero
 *     for eligible configs).
 *
 * Variants sharing line size and LRU replacement go further: one
 * Mattson-style stack pass (sim/stack_sim.h) resolves every
 * (size, associativity) point in a single walk. Non-LRU or
 * odd-line-size members fall back to a per-variant Cache replay of
 * the miss stream — still far cheaper than a full cell. Configs that
 * fail the eligibility test (no real L2, prefetch, bypass,
 * pipelined/stream-buffer, unified L2) and singleton groups run per
 * cell through SuiteTraces::runOne.
 *
 * Every sweep plans this way; there is no other sweep path. Derived
 * cells are bit-identical to runOne on the same config — enforced
 * against a plain runOne loop by tests/sweep_collapse_test.cc, and
 * end to end by the golden_<bench> stdout ctests.
 */

#ifndef IBS_SIM_COLLAPSE_H
#define IBS_SIM_COLLAPSE_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace ibs {

/**
 * Structural eligibility: the config's L1 behaviour is provably
 * independent of its L2 state. Requires a real (non-perfect) L2 and
 * none of the interface optimizations that feed L2 answers back into
 * fetch behaviour. A unified L2 is excluded conservatively (its data
 * stream would perturb replay ordering under engine.run drivers).
 */
bool collapseEligible(const FetchConfig &config);

/**
 * Canonical shared-front-end key of an eligible config: every field
 * except the L2 geometry and L2 fill timing (neither feeds back into
 * the L1). Two eligible configs with equal keys may share one
 * capture run; SuiteTraces::missStream memoizes captures by it.
 */
std::string collapseKey(const FetchConfig &config);

/** One collapsed group: grid indices sharing a front end. The first
 *  member (lowest grid index) is the leader whose config drives the
 *  capture run. */
struct CollapseGroup
{
    std::vector<size_t> members;
};

/** Partition of a config grid into collapsed groups and per-cell
 *  fallback configs. */
struct CollapsePlan
{
    std::vector<CollapseGroup> groups; ///< Each has >= 2 members.
    std::vector<size_t> singles; ///< Ineligible + singleton groups.

    /** Cells served via the collapsed path (leaders included). */
    size_t
    collapsedCells(size_t workloads) const
    {
        size_t cells = 0;
        for (const CollapseGroup &g : groups)
            cells += g.members.size();
        return cells * workloads;
    }
};

/**
 * Group `configs` by collapse key. Deterministic: group members are
 * in ascending grid order, groups are ordered by leader index, and
 * `singles` is ascending.
 */
CollapsePlan planCollapse(const std::vector<FetchConfig> &configs);

/**
 * Resolve every member of `group` for one workload: capture (or
 * reuse) the leader's miss stream, stack-simulate the LRU
 * same-line-size buckets in one pass each, Cache-replay the rest,
 * and derive full FetchStats per member — bit-identical to
 * suite.runOne on each member config. Publishes, per member, the
 * same registry counters and the sim.cell.instructions histogram
 * sample runOne would have (synthesized from the capture run), so
 * obs snapshots are collapse-invariant. Hands each member's cell to
 * `sink` in member order; the leader's timing carries the capture
 * run's cost, every other member's is marked collapsed.
 */
void runCollapsedGroup(const SuiteTraces &suite, size_t workload,
                       const std::vector<FetchConfig> &configs,
                       const CollapseGroup &group, const CellSink &sink);

} // namespace ibs

#endif // IBS_SIM_COLLAPSE_H
