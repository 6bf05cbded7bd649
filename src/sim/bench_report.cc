/**
 * @file
 * BENCH_<name>.json report assembly and writing.
 */

#include "sim/bench_report.h"

#include <cstdio>
#include <cstdlib>

#include "obs/log.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "sim/collapse.h"

// CMake injects the configured build type (see src/sim/CMakeLists);
// default for non-CMake compiles of this translation unit.
#ifndef IBS_BUILD_TYPE
#define IBS_BUILD_TYPE "unknown"
#endif

namespace ibs {

Json
toJson(const CacheConfig &config)
{
    return Json::object()
        .set("size_bytes", Json::number(config.sizeBytes))
        .set("assoc", Json::number(uint64_t{config.assoc}))
        .set("line_bytes", Json::number(uint64_t{config.lineBytes}));
}

Json
toJson(const MemoryTiming &timing)
{
    return Json::object()
        .set("latency_cycles", Json::number(uint64_t{
                                   timing.latencyCycles}))
        .set("bytes_per_cycle", Json::number(uint64_t{
                                    timing.bytesPerCycle}));
}

Json
toJson(const FetchConfig &config)
{
    Json j = Json::object()
        .set("l1", toJson(config.l1))
        .set("l1_fill", toJson(config.l1Fill))
        .set("has_l2", Json::boolean(config.hasL2));
    if (config.hasL2) {
        j.set("l2", toJson(config.l2))
            .set("l2_fill", toJson(config.l2Fill));
    }
    j.set("perfect_l2", Json::boolean(config.perfectL2))
        .set("prefetch_lines",
             Json::number(uint64_t{config.prefetchLines}))
        .set("bypass", Json::boolean(config.bypass))
        .set("cache_prefetch_only_if_used",
             Json::boolean(config.cachePrefetchOnlyIfUsed))
        .set("pipelined", Json::boolean(config.pipelined))
        .set("stream_buffer_lines",
             Json::number(uint64_t{config.streamBufferLines}))
        .set("l2_unified", Json::boolean(config.l2Unified));
    return j;
}

Json
toJson(const FetchStats &stats)
{
    return Json::object()
        .set("instructions", Json::number(stats.instructions))
        .set("cycles", Json::number(stats.cycles))
        .set("stall_cycles_l1", Json::number(stats.stallCyclesL1))
        .set("stall_cycles_l2", Json::number(stats.stallCyclesL2))
        .set("l1_misses", Json::number(stats.l1Misses))
        .set("l2_accesses", Json::number(stats.l2Accesses))
        .set("l2_misses", Json::number(stats.l2Misses))
        .set("l2_data_accesses", Json::number(stats.l2DataAccesses))
        .set("l2_data_misses", Json::number(stats.l2DataMisses))
        .set("prefetches_issued", Json::number(stats.prefetchesIssued))
        .set("prefetches_used", Json::number(stats.prefetchesUsed))
        .set("stream_buffer_hits",
             Json::number(stats.streamBufferHits))
        .set("bypass_hits", Json::number(stats.bypassHits))
        .set("mpi100", Json::number(stats.mpi100()))
        .set("l2_miss_ratio", Json::number(stats.l2MissRatio()))
        .set("l1_cpi", Json::number(stats.l1Cpi()))
        .set("l2_cpi", Json::number(stats.l2Cpi()))
        .set("cpi_instr", Json::number(stats.cpiInstr()));
}

Json
toJson(const DecstationStats &stats)
{
    return Json::object()
        .set("instructions", Json::number(stats.instructions))
        .set("user_instructions",
             Json::number(stats.userInstructions))
        .set("icache_misses", Json::number(stats.icacheMisses))
        .set("dcache_misses", Json::number(stats.dcacheMisses))
        .set("tlb_misses", Json::number(stats.tlbMisses))
        .set("write_stall_cycles",
             Json::number(stats.writeStallCycles))
        .set("user_fraction", Json::number(stats.userFraction()))
        .set("cpi_instr", Json::number(stats.cpiInstr()))
        .set("cpi_data", Json::number(stats.cpiData()))
        .set("cpi_tlb", Json::number(stats.cpiTlb()))
        .set("cpi_write", Json::number(stats.cpiWrite()))
        .set("total_memory_cpi",
             Json::number(stats.totalMemoryCpi()));
}

Json
timingJson(double wall_seconds, uint64_t instructions)
{
    const double ips = wall_seconds > 0.0
        ? static_cast<double>(instructions) / wall_seconds
        : 0.0;
    return Json::object()
        .set("wall_seconds", Json::number(wall_seconds))
        .set("instructions", Json::number(instructions))
        .set("instructions_per_second", Json::number(ips));
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name))
{
    // Materialize the global trace sink (a no-op without
    // IBS_OBS_TRACE) so benches that never start a sweep timer still
    // flush a valid trace file at exit.
    obs::TraceEventSink::global();

    // Standard provenance fields, present in every report; benches
    // may add their own keys via meta().
#if defined(__GNUC__) || defined(__clang__)
    meta_.set("compiler", Json::string(__VERSION__));
#else
    meta_.set("compiler", Json::string("unknown"));
#endif
    meta_.set("build_type", Json::string(IBS_BUILD_TYPE))
        .set("schema_version", Json::number(uint64_t{2}))
        .set("threads", Json::number(uint64_t{sweepThreads()}))
        .set("bench_instructions",
             Json::number(benchInstructions()));
}

void
BenchReport::addCell(const std::string &workload, Json config,
                     Json stats, double wall_seconds,
                     uint64_t instructions, const std::string &grid,
                     const std::string &label)
{
    Json cell = Json::object();
    if (!grid.empty())
        cell.set("grid", Json::string(grid));
    if (!label.empty())
        cell.set("config_label", Json::string(label));
    cell.set("config", std::move(config))
        .set("workload", Json::string(workload))
        .set("stats", std::move(stats))
        .set("timing", timingJson(wall_seconds, instructions));
    cells_.push_back(std::move(cell));
}

void
BenchReport::addSweep(const std::string &grid,
                      const SuiteTraces &suite,
                      const std::vector<FetchConfig> &configs,
                      const SweepResult &result,
                      const std::vector<std::string> &labels)
{
    for (size_t c = 0; c < configs.size(); ++c) {
        for (size_t w = 0; w < suite.count(); ++w) {
            Json cell = Json::object();
            if (!grid.empty())
                cell.set("grid", Json::string(grid));
            cell.set("config_index", Json::number(uint64_t{c}));
            if (c < labels.size())
                cell.set("config_label", Json::string(labels[c]));
            // Only sweep cells carry the flag; custom cells and the
            // server's cell frames do not.
            const CellTiming &timing = result.timing(c, w);
            cell.set("config", toJson(configs[c]))
                .set("workload", Json::string(suite.name(w)))
                .set("stats", toJson(result.cell(c, w)))
                .set("timing",
                     timingJson(timing.wallSeconds, timing.instructions)
                         .set("collapsed",
                              Json::boolean(collapseEligible(configs[c]))));
            cells_.push_back(std::move(cell));
        }
    }
}

Json
BenchReport::build() const
{
    Json doc = Json::object()
        .set("schema_version", Json::number(uint64_t{2}))
        .set("bench", Json::string(name_))
        .set("threads", Json::number(uint64_t{sweepThreads()}))
        .set("meta", meta_);
    Json cells = Json::array();
    for (const Json &cell : cells_)
        cells.push(cell);
    doc.set("cells", std::move(cells))
        .set("total_wall_seconds", Json::number(timer_.seconds()));
    // The counter snapshot rides along when observability is on; the
    // text output and the stats objects above are unaffected either
    // way.
    const obs::Registry &reg = obs::Registry::global();
    if (reg.enabled())
        doc.set("counters", reg.snapshotJson());
    return doc;
}

std::string
BenchReport::outputPath(const std::string &bench_name)
{
    std::string dir;
    if (const char *env = std::getenv("IBS_BENCH_JSON_DIR");
        env && env[0] != '\0') {
        dir = env;
        if (dir.back() != '/')
            dir += '/';
    }
    return dir + "BENCH_" + bench_name + ".json";
}

bool
BenchReport::write() const
{
    const std::string path = outputPath(name_);
    const std::string text = build().dump() + "\n";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        obs::log(obs::LogLevel::Error,
                 "BenchReport: cannot open %s for writing",
                 path.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        obs::log(obs::LogLevel::Error,
                 "BenchReport: short write to %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace ibs
