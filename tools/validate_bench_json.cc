/**
 * @file
 * Schema validator for BENCH_<name>.json reports and obs trace files.
 *
 * Default mode exits 0 when every file given on the command line
 * parses as JSON and carries the required report keys (see
 * src/sim/bench_report.h): schema_version (1 or 2), bench, threads,
 * total_wall_seconds, and a non-empty cells array whose entries each
 * have config, workload, stats and a timing object with wall_seconds
 * / instructions / instructions_per_second. Schema v2 additionally
 * requires the meta provenance block (string compiler/build_type,
 * numeric schema_version/threads/bench_instructions); the optional
 * "counters" object must be all-numeric when present in either
 * version. Any violation prints the file and reason and exits 1.
 * A leading --min-schema <n> raises the accepted schema floor — the
 * ctests pass --min-schema 2 so a bench regressing to a v1 report
 * (no meta block) fails validation even though v1 documents still
 * parse.
 *
 * Further modes:
 *
 *   --trace <file...>
 *     Validate Perfetto/chrome traceEvents documents as written by
 *     obs::TraceEventSink: a top-level object with a traceEvents
 *     array (possibly empty) of events, each with a string name,
 *     numeric ts/pid/tid, and a "ph" of "X" (needs numeric dur),
 *     "C" (needs numeric args.value), "b"/"e" (async nestable:
 *     needs a string cat and a numeric id), or "s"/"t"/"f" (flow:
 *     needs a numeric id).
 *
 *   --trace-flow <min_tids> <file...>
 *     Everything --trace checks, plus the request-tracing shape the
 *     server promises under IBS_OBS_TRACE: every async begin has a
 *     matching end (by cat+id+name), every flow id has a start and
 *     an end, at least one async span exists, and at least one flow
 *     id touches >= <min_tids> distinct tids (the request really
 *     crossed threads).
 *
 *   --prom <file...>
 *     Validate Prometheus text exposition documents as served by
 *     the sweep server's `metrics` request (obs::validatePromText):
 *     line grammar, TYPE-before-samples, histogram bucket
 *     monotonicity and the mandatory le="+Inf" == _count.
 *
 * Used by scripts/check_golden.sh, scripts/check_obs_trace.sh and
 * scripts/check_server.sh (wired in as ctests) and by perfbench, and
 * handy interactively:
 *
 *   ./build/tools/validate_bench_json BENCH_*.json
 *   ./build/tools/validate_bench_json --trace obs_trace.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "obs/prom.h"
#include "stats/report.h"

namespace {

using ibs::Json;

bool
fail(const std::string &path, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\n", path.c_str(), why.c_str());
    return false;
}

bool
requireNumber(const Json &obj, const std::string &key,
              const std::string &path, const std::string &where)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return fail(path, where + ": missing numeric \"" + key + "\"");
    return true;
}

bool
requireString(const Json &obj, const std::string &key,
              const std::string &path, const std::string &where)
{
    const Json *v = obj.find(key);
    if (!v || !v->isString())
        return fail(path, where + ": missing string \"" + key + "\"");
    return true;
}

bool
loadJson(const std::string &path, Json &doc)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(path, "cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        doc = Json::parse(buffer.str());
    } catch (const std::exception &e) {
        return fail(path, e.what());
    }
    return true;
}

bool
validateCell(const Json &cell, size_t index, const std::string &path)
{
    const std::string where = "cells[" + std::to_string(index) + "]";
    if (!cell.isObject())
        return fail(path, where + ": not an object");
    const Json *workload = cell.find("workload");
    if (!workload || !workload->isString())
        return fail(path, where + ": missing string \"workload\"");
    const Json *config = cell.find("config");
    if (!config || !config->isObject())
        return fail(path, where + ": missing object \"config\"");
    const Json *stats = cell.find("stats");
    if (!stats || !stats->isObject())
        return fail(path, where + ": missing object \"stats\"");
    const Json *timing = cell.find("timing");
    if (!timing || !timing->isObject())
        return fail(path, where + ": missing object \"timing\"");
    // Optional since the sweep-collapsing change: sweep-executor
    // cells carry a boolean "collapsed" (derived from a shared miss
    // stream vs simulated in full); other cells omit it.
    const Json *collapsed = timing->find("collapsed");
    if (collapsed && collapsed->kind() != Json::Kind::Bool)
        return fail(path, where + ".timing.collapsed is not a bool");
    return requireNumber(*timing, "wall_seconds", path,
                         where + ".timing") &&
        requireNumber(*timing, "instructions", path,
                      where + ".timing") &&
        requireNumber(*timing, "instructions_per_second", path,
                      where + ".timing");
}

/** The schema-v2 provenance block (src/sim/bench_report.h). */
bool
validateMeta(const Json &doc, const std::string &path)
{
    const Json *meta = doc.find("meta");
    if (!meta || !meta->isObject())
        return fail(path, "schema v2: missing object \"meta\"");
    return requireString(*meta, "compiler", path, "meta") &&
        requireString(*meta, "build_type", path, "meta") &&
        requireNumber(*meta, "schema_version", path, "meta") &&
        requireNumber(*meta, "threads", path, "meta") &&
        requireNumber(*meta, "bench_instructions", path, "meta");
}

/** Optional obs::Registry snapshot: flat object, numeric values. */
bool
validateCounters(const Json &doc, const std::string &path)
{
    const Json *counters = doc.find("counters");
    if (!counters)
        return true;
    if (!counters->isObject())
        return fail(path, "\"counters\" is not an object");
    for (const auto &[key, value] : counters->members()) {
        if (!value.isNumber())
            return fail(path,
                        "counters." + key + " is not numeric");
    }
    return true;
}

bool
validateFile(const std::string &path, int min_schema)
{
    Json doc;
    if (!loadJson(path, doc))
        return false;
    if (!doc.isObject())
        return fail(path, "top level is not an object");
    if (!requireNumber(doc, "schema_version", path, "top level"))
        return false;
    const double version = doc.at("schema_version").asNumber();
    if (version != 1 && version != 2)
        return fail(path, "unsupported schema_version " +
                              std::to_string(version));
    if (version < min_schema)
        return fail(path, "schema_version " + std::to_string(version) +
                              " below required minimum " +
                              std::to_string(min_schema));
    const Json *bench = doc.find("bench");
    if (!bench || !bench->isString())
        return fail(path, "missing string \"bench\"");
    if (!requireNumber(doc, "threads", path, "top level") ||
        !requireNumber(doc, "total_wall_seconds", path, "top level"))
        return false;
    if (version == 2 && !validateMeta(doc, path))
        return false;
    if (!validateCounters(doc, path))
        return false;
    const Json *cells = doc.find("cells");
    if (!cells || !cells->isArray())
        return fail(path, "missing array \"cells\"");
    if (cells->size() == 0)
        return fail(path, "\"cells\" is empty");
    for (size_t i = 0; i < cells->size(); ++i) {
        if (!validateCell(cells->at(i), i, path))
            return false;
    }
    std::printf("%s: ok (%zu cells)\n", path.c_str(), cells->size());
    return true;
}

bool
validateTraceEvent(const Json &event, size_t index,
                   const std::string &path)
{
    const std::string where =
        "traceEvents[" + std::to_string(index) + "]";
    if (!event.isObject())
        return fail(path, where + ": not an object");
    if (!requireString(event, "name", path, where) ||
        !requireString(event, "ph", path, where) ||
        !requireNumber(event, "ts", path, where) ||
        !requireNumber(event, "pid", path, where) ||
        !requireNumber(event, "tid", path, where))
        return false;
    const std::string &ph = event.at("ph").asString();
    if (ph == "X")
        return requireNumber(event, "dur", path, where);
    if (ph == "C") {
        const Json *args = event.find("args");
        if (!args || !args->isObject())
            return fail(path, where + ": counter without args");
        return requireNumber(*args, "value", path, where + ".args");
    }
    if (ph == "b" || ph == "e")
        return requireString(event, "cat", path, where) &&
            requireNumber(event, "id", path, where);
    if (ph == "s" || ph == "t" || ph == "f")
        return requireNumber(event, "id", path, where);
    return fail(path, where + ": unknown ph \"" + ph + "\"");
}

bool
validateTraceFile(const std::string &path)
{
    Json doc;
    if (!loadJson(path, doc))
        return false;
    if (!doc.isObject())
        return fail(path, "top level is not an object");
    const Json *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return fail(path, "missing array \"traceEvents\"");
    for (size_t i = 0; i < events->size(); ++i) {
        if (!validateTraceEvent(events->at(i), i, path))
            return false;
    }
    std::printf("%s: ok (%zu trace events)\n", path.c_str(),
                events->size());
    return true;
}

/** --trace plus the request-tracing shape: balanced async spans,
 *  balanced flows, and at least one flow crossing min_tids tids. */
bool
validateTraceFlow(const std::string &path, long min_tids)
{
    if (!validateTraceFile(path))
        return false;
    Json doc;
    if (!loadJson(path, doc))
        return false;
    const Json &events = *doc.find("traceEvents");

    // Async spans match by (cat, id, name); count begins vs ends.
    std::map<std::string, long> async_open;
    std::map<double, std::set<double>> flow_tids; // id -> tids
    std::map<double, int> flow_starts, flow_ends;
    size_t async_total = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const std::string &ph = e.at("ph").asString();
        if (ph == "b" || ph == "e") {
            const std::string key = e.at("cat").asString() + "\x1f" +
                std::to_string(e.at("id").asNumber()) + "\x1f" +
                e.at("name").asString();
            async_open[key] += ph == "b" ? 1 : -1;
            if (ph == "b")
                ++async_total;
        } else if (ph == "s" || ph == "t" || ph == "f") {
            const double id = e.at("id").asNumber();
            flow_tids[id].insert(e.at("tid").asNumber());
            if (ph == "s")
                ++flow_starts[id];
            if (ph == "f")
                ++flow_ends[id];
        }
    }
    for (const auto &[key, open] : async_open) {
        if (open != 0)
            return fail(path, "unbalanced async span (name '" +
                                  key.substr(key.rfind('\x1f') + 1) +
                                  "': " + std::to_string(open) +
                                  " more begins than ends)");
    }
    if (async_total == 0)
        return fail(path, "no async spans (ph \"b\") in trace");
    size_t crossing = 0;
    for (const auto &[id, tids] : flow_tids) {
        if (flow_starts[id] == 0 || flow_ends[id] == 0)
            return fail(path, "flow id " + std::to_string(id) +
                                  " lacks a start or an end event");
        if (tids.size() >= static_cast<size_t>(min_tids))
            ++crossing;
    }
    if (crossing == 0)
        return fail(path, "no flow spans >= " +
                              std::to_string(min_tids) +
                              " distinct tids");
    std::printf("%s: flow ok (%zu async spans, %zu/%zu flows >= %ld "
                "tids)\n",
                path.c_str(), async_total, crossing, flow_tids.size(),
                min_tids);
    return true;
}

/** --prom: Prometheus exposition well-formedness. */
bool
validatePromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(path, "cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!ibs::obs::validatePromText(buffer.str(), error))
        return fail(path, error);
    std::printf("%s: prom ok\n", path.c_str());
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--min-schema <n>] BENCH_<name>.json "
                 "[more.json...]\n"
                 "       %s --trace <trace.json> [more.json...]\n"
                 "       %s --trace-flow <min_tids> <trace.json> "
                 "[more.json...]\n"
                 "       %s --prom <metrics.txt> [more.txt...]\n",
                 argv0, argv0, argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    if (std::strcmp(argv[1], "--trace") == 0) {
        if (argc < 3)
            return usage(argv[0]);
        bool ok = true;
        for (int i = 2; i < argc; ++i)
            ok = validateTraceFile(argv[i]) && ok;
        return ok ? 0 : 1;
    }

    if (std::strcmp(argv[1], "--trace-flow") == 0) {
        if (argc < 4)
            return usage(argv[0]);
        char *end = nullptr;
        const long min_tids = std::strtol(argv[2], &end, 10);
        if (end == argv[2] || *end != '\0' || min_tids < 1)
            return usage(argv[0]);
        bool ok = true;
        for (int i = 3; i < argc; ++i)
            ok = validateTraceFlow(argv[i], min_tids) && ok;
        return ok ? 0 : 1;
    }

    if (std::strcmp(argv[1], "--prom") == 0) {
        if (argc < 3)
            return usage(argv[0]);
        bool ok = true;
        for (int i = 2; i < argc; ++i)
            ok = validatePromFile(argv[i]) && ok;
        return ok ? 0 : 1;
    }

    int first = 1;
    int min_schema = 1;
    if (std::strcmp(argv[1], "--min-schema") == 0) {
        if (argc < 4)
            return usage(argv[0]);
        char *end = nullptr;
        const long v = std::strtol(argv[2], &end, 10);
        if (end == argv[2] || *end != '\0' || v < 1 || v > 2)
            return usage(argv[0]);
        min_schema = static_cast<int>(v);
        first = 3;
    }

    bool ok = true;
    for (int i = first; i < argc; ++i)
        ok = validateFile(argv[i], min_schema) && ok;
    return ok ? 0 : 1;
}
