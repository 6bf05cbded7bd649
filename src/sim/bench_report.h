/**
 * @file
 * Machine-readable bench reports: the BENCH_<name>.json schema.
 *
 * Every bench binary keeps its human-readable text output byte-for-
 * byte unchanged and *additionally* writes BENCH_<name>.json so miss
 * ratios, CPI components and sweep throughput can be diffed across
 * commits. One schema for all 24 benches:
 *
 *   {
 *     "schema_version": 2,
 *     "bench": "<name>",
 *     "threads": <worker count the sweep executor would use>,
 *     "meta": {
 *       "compiler": "<compiler version string>",
 *       "build_type": "<CMAKE_BUILD_TYPE>",
 *       "schema_version": 2,
 *       "threads": <as above>,
 *       "bench_instructions": <IBS_BENCH_INSTR resolution>,
 *       ...bench-specific keys added via meta()...
 *     },
 *     "cells": [
 *       {
 *         "grid": "<which sweep/table of the bench>",
 *         "config_label": "<optional human name of the config>",
 *         "config": { ...FetchConfig or bench-specific object... },
 *         "workload": "<workload name>",
 *         "stats": { ...counters and derived metrics... },
 *         "timing": {
 *           "wall_seconds": <double>,
 *           "instructions": <simulated instructions>,
 *           "instructions_per_second": <double>
 *         }
 *       }, ...
 *     ],
 *     "total_wall_seconds": <bench wall-clock, construction to write>,
 *     "counters": { "<component.instance.event>": <n>, ... }
 *   }
 *
 * "counters" is the obs::Registry snapshot and appears only when
 * observability is enabled (IBS_OBS=1 / IBS_OBS_TRACE); stats and
 * text output are identical either way. Schema history: v1 had no
 * mandatory meta block and no counters.
 *
 * "cells" is keyed by (config, workload): sweep-driven benches get
 * one cell per grid point per workload straight from the parallel
 * sweep executor's CellTiming; bench-specific measurements (three-C
 * classification, Tapeworm trials, DECstation runs, ...) add custom
 * cells with their own stats object and a WallTimer-measured timing.
 *
 * The report lands next to the binary's text output: in the current
 * working directory, or in $IBS_BENCH_JSON_DIR when set. Writing is
 * best-effort — a failure warns on stderr and never perturbs the
 * bench's stdout or exit path.
 */

#ifndef IBS_SIM_BENCH_REPORT_H
#define IBS_SIM_BENCH_REPORT_H

#include <string>
#include <vector>

#include "core/decstation.h"
#include "core/fetch_config.h"
#include "core/fetch_stats.h"
#include "stats/report.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace ibs {

/** JSON form of a cache geometry. */
Json toJson(const CacheConfig &config);

/** JSON form of a memory interface timing. */
Json toJson(const MemoryTiming &timing);

/** JSON form of a full fetch-path configuration. */
Json toJson(const FetchConfig &config);

/** JSON form of fetch counters plus the derived paper metrics
 *  (mpi100, l2_miss_ratio, l1_cpi, l2_cpi, cpi_instr). */
Json toJson(const FetchStats &stats);

/** JSON form of DECstation 3100 measurement counters plus the four
 *  CPI components of Tables 1 and 3. */
Json toJson(const DecstationStats &stats);

/** timing object: {wall_seconds, instructions,
 *  instructions_per_second}. */
Json timingJson(double wall_seconds, uint64_t instructions);

/** Accumulates cells and writes BENCH_<name>.json. */
class BenchReport
{
  public:
    /** @param bench_name bench binary name, e.g. "table5_baselines" */
    explicit BenchReport(std::string bench_name);

    /**
     * Append one cell. `config` may be any object (empty for benches
     * with a fixed machine model); `stats` must be an object of
     * numeric metrics. `label` and `grid` are optional tags
     * distinguishing multiple tables/sweeps within one bench.
     */
    void addCell(const std::string &workload, Json config, Json stats,
                 double wall_seconds, uint64_t instructions,
                 const std::string &grid = "",
                 const std::string &label = "");

    /**
     * Append every (config × workload) cell of a sweep, with the
     * executor's per-cell timing. Each timing also carries
     * "collapsed": whether the cell was derived from its front end's
     * shared capture, i.e. collapseEligible(config)
     * (sim/collapse.h). `labels`, when given, must name each grid
     * point (size must match configs).
     */
    void addSweep(const std::string &grid, const SuiteTraces &suite,
                  const std::vector<FetchConfig> &configs,
                  const SweepResult &result,
                  const std::vector<std::string> &labels = {});

    /** The "meta" object: standard provenance fields are set at
     *  construction; benches may add their own keys here. */
    Json &meta() { return meta_; }

    size_t cellCount() const { return cells_.size(); }

    /** Assemble the document (schema above) as of now. */
    Json build() const;

    /**
     * Write BENCH_<bench_name>.json (pretty-printed, trailing
     * newline) to $IBS_BENCH_JSON_DIR or the current directory.
     * Returns false (after a stderr warning) on I/O failure.
     */
    bool write() const;

    /** Path write() will use. */
    static std::string outputPath(const std::string &bench_name);

  private:
    std::string name_;
    Json meta_ = Json::object();
    std::vector<Json> cells_;
    WallTimer timer_; ///< Construction-to-write() wall clock.
};

} // namespace ibs

#endif // IBS_SIM_BENCH_REPORT_H
