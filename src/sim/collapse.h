/**
 * @file
 * Sweep collapsing: derive every blocking-fill cell from one shared
 * L1 front end.
 *
 * The paper prices one L1 miss stream under many fill interfaces:
 * §3 charges each L1 miss a fill "as if the next level always hit"
 * and adds the L2 part on top. Table 5's baselines, Figure 6's
 * bandwidths, Table 6's prefetch bursts and every L2 geometry of
 * Figures 3, 4 and 7 are that one stream at different prices. For a
 * *blocking* fill with no bypass or stream buffer the processor
 * stalls until the whole burst (the demand line plus `prefetchLines`
 * sequential lines, FetchEngine::missBlocking) is in the cache, so
 * neither the fill timing nor the L2 can change which lines the L1
 * holds or the order in which it misses: those depend on the L1
 * geometry and the prefetch depth alone. SuiteTraces::runOne
 * therefore gives every such cell (collapseEligible) the same three
 * steps:
 *
 *  1. key the config by its L1 geometry, its prefetch depth and
 *     whether a real L2 consumes the misses (collapseKey);
 *  2. run that front end once per (workload, key) with a perfect L2
 *     (SuiteTraces::missStream, memoized), keeping the instruction
 *     and miss counts and, for a real-L2 key only, the run-encoded
 *     demand-miss stream — 5-50x shorter than the instruction
 *     stream;
 *  3. price the cell from the capture (deriveCell), exactly:
 *
 *       stallCyclesL1    = l1Misses * l1Fill.fillCycles(
 *                              (1 + prefetchLines) * l1.lineBytes)
 *       prefetchesIssued = l1Misses * prefetchLines
 *       l2Accesses       = l1Misses * (1 + prefetchLines)
 *       l2Misses         = misses of one Cache(config.l2) fed
 *                          line, line + L, ..., line + prefetchLines * L
 *                          for each captured miss, in stream order
 *       stallCyclesL2    = l2Misses * l2Fill.fillCycles(l2.lineBytes)
 *       cycles           = instructions + stallCyclesL1 + stallCyclesL2
 *
 *     with the L2 terms zero when no real L2 is present and every
 *     bypass and stream-buffer counter structurally zero.
 *
 * Replay is the only L2 path: no bench or catalog grid has more than
 * 5 distinct geometries per line size, and one Mattson stack walk
 * (sim/stack_sim.h) costs more than replaying that many.
 *
 * Bypass and pipelined/stream-buffer configs, whose window and port
 * timing feed back into the counts, and unified L2s replay their run
 * trace through a FetchEngine. Derived cells are bit-identical to
 * that full replay on the same config — enforced by
 * tests/sweep_collapse_test.cc against a FetchEngine oracle, by
 * FetchStats::check's blocking-fill identities on every replayed
 * cell, and end to end by the golden_<bench> stdout ctests.
 */

#ifndef IBS_SIM_COLLAPSE_H
#define IBS_SIM_COLLAPSE_H

#include <string>

#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "sim/runner.h"

namespace ibs {

/**
 * Structural eligibility: a blocking fill, so the config's L1
 * contents and miss order depend only on its L1 geometry and
 * prefetch depth. Admits any prefetch depth and a real, perfect or
 * absent L2; excludes bypass buffers (and their cache-if-used
 * variant) and the pipelined stream buffer, whose timing feeds back
 * into the fetch, and a unified L2 (its data stream would perturb
 * replay ordering under engine.run drivers).
 */
bool collapseEligible(const FetchConfig &config);

/**
 * Canonical shared-front-end key of an eligible config: its L1
 * geometry, its prefetch depth and whether a real L2 consumes its
 * misses. Fill timing and L2 geometry are left out (neither feeds
 * back into the L1). Eligible configs with equal keys share one
 * capture run; SuiteTraces::missStream memoizes captures by it and
 * records the miss stream only for real-L2 keys.
 */
std::string collapseKey(const FetchConfig &config);

/**
 * The cell of eligible `config` on the workload `ms` was captured
 * from: price the capture's misses with `config`'s fill timing and
 * prefetch burst, replay the burst through one Cache(config.l2) when
 * a real L2 is present, and return the full FetchStats —
 * bit-identical to a FetchEngine replay of the workload's run trace.
 * When the obs registry is enabled, publishes exactly what that
 * replay would have: the capture run's L1 and run-path counters, the
 * Cache's own "cache.l2.*" counters (none without a real L2), zeros
 * for the stream buffer and the sim.cell.instructions sample, so obs
 * snapshots do not depend on which path produced a cell.
 */
FetchStats deriveCell(const MissStream &ms, const FetchConfig &config);

} // namespace ibs

#endif // IBS_SIM_COLLAPSE_H
