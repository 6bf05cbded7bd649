/**
 * @file
 * Sweep collapsing: derive L2 variants from one shared L1 front end.
 *
 * Every figure/table of the paper sweeps cache geometry, and most
 * grid cells differ only in the L2 — fig3 (line size x size), fig4
 * (associativity), the catalog's `_l2` classes. For a *blocking*
 * fetch configuration with no prefetch, bypass or stream buffer, the
 * L1 front end is completely independent of L2 state: every L1 miss
 * consults the L2 exactly once (FetchEngine::missBlocking), the L2's
 * answer only adds stall cycles, and neither the L1 contents nor the
 * miss order can change with L2 geometry. SuiteTraces::runOne
 * therefore gives every such cell (collapseEligible) the same
 * three steps:
 *
 *  1. key the config by everything except its L2 geometry and L2
 *     fill timing (collapseKey);
 *  2. run that front end once per (workload, key) with a perfect L2,
 *     capturing the L1-refill reference stream as a run-encoded miss
 *     trace (SuiteTraces::missStream, memoized) — 5-50x shorter than
 *     the instruction stream;
 *  3. replay the short stream through one Cache(config.l2) and derive
 *     the cell's full FetchStats arithmetically (deriveCell), exactly:
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
 * Replay is the only L2 path: no bench or catalog grid has more than
 * 5 distinct geometries per line size, and one Mattson stack walk
 * (sim/stack_sim.h) costs more than replaying that many.
 *
 * Configs that fail the eligibility test (no real L2, prefetch,
 * bypass, pipelined/stream-buffer, unified L2) replay their run
 * trace through a FetchEngine. Derived cells are bit-identical to
 * that full replay on the same config — enforced by
 * tests/sweep_collapse_test.cc against a FetchEngine oracle, and end
 * to end by the golden_<bench> stdout ctests.
 */

#ifndef IBS_SIM_COLLAPSE_H
#define IBS_SIM_COLLAPSE_H

#include <string>

#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "sim/runner.h"

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
 * the L1). Eligible configs with equal keys share one capture run;
 * SuiteTraces::missStream memoizes captures by it.
 */
std::string collapseKey(const FetchConfig &config);

/**
 * The cell of eligible `config` on the workload `ms` was captured
 * from: replay the miss stream through one Cache(config.l2) and
 * derive the full FetchStats — bit-identical to a FetchEngine replay
 * of the workload's run trace. When the obs registry is enabled,
 * publishes what that replay would have: the capture run's L1 and
 * engine counters, the Cache's own "cache.l2.*" counters, zeros for
 * the stream buffer and the sim.cell.instructions sample, so obs
 * snapshots do not depend on which path produced a cell.
 */
FetchStats deriveCell(const MissStream &ms, const FetchConfig &config);

} // namespace ibs

#endif // IBS_SIM_COLLAPSE_H
