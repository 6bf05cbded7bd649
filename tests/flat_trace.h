/**
 * @file
 * Flat-trace oracle for tests: a workload's instruction addresses,
 * one per instruction, from the per-record WorkloadModel::next walk.
 *
 * The simulator itself only holds run traces (SuiteTraces,
 * workload/run_stream.h), which RunStream cuts from whole sequential
 * blocks. This is the slow, obviously-correct other side of that
 * comparison: compressRuns of it must equal the streamed runs, and
 * replaying them must match a per-instruction loop over it.
 */

#ifndef IBS_TESTS_FLAT_TRACE_H
#define IBS_TESTS_FLAT_TRACE_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "trace/run_trace.h"
#include "workload/model.h"

namespace ibs {

/** The first `n` instruction addresses of `spec` (data references,
 *  when the spec enables them, are drawn and skipped). */
inline std::vector<uint64_t>
flatTrace(const WorkloadSpec &spec, uint64_t n)
{
    WorkloadModel model(spec);
    std::vector<uint64_t> addrs;
    addrs.reserve(n);
    TraceRecord rec;
    while (addrs.size() < n && model.next(rec)) {
        if (rec.isInstr())
            addrs.push_back(rec.vaddr);
    }
    return addrs;
}

/**
 * Compress a flat instruction-address vector into line-bounded
 * sequential runs.
 *
 * A run is extended while the next address is exactly the previous
 * plus kInstrBytes *and* still in the same `line_bytes`-sized line as
 * the run's start; any taken branch, discontinuity or line-boundary
 * crossing starts a new run. Concatenating the runs therefore
 * reproduces the input exactly — the encoding is lossless.
 *
 * @param addrs instruction fetch addresses, in trace order
 * @param line_bytes cache line size; must be a power of two >= 4
 * @throws std::invalid_argument on an invalid line size
 */
inline RunTrace
compressRuns(const std::vector<uint64_t> &addrs, uint32_t line_bytes)
{
    if (line_bytes < kInstrBytes ||
        !std::has_single_bit(line_bytes)) {
        throw std::invalid_argument(
            "compressRuns: line_bytes must be a power of two >= 4");
    }

    RunTrace trace;
    trace.lineBytes = line_bytes;
    trace.instructions = addrs.size();
    if (addrs.empty())
        return trace;

    const uint64_t line_mask = ~uint64_t{line_bytes - 1};
    // Worst case (no compression) is one run per address; typical
    // traces compress ~8-16x, so reserve conservatively small.
    trace.runs.reserve(addrs.size() / 4 + 1);

    FetchRun run{addrs[0], 1};
    uint64_t run_line = addrs[0] & line_mask;
    uint64_t prev = addrs[0];
    for (size_t i = 1; i < addrs.size(); ++i) {
        const uint64_t addr = addrs[i];
        if (addr == prev + kInstrBytes &&
            (addr & line_mask) == run_line) {
            ++run.count;
        } else {
            trace.runs.push_back(run);
            run = FetchRun{addr, 1};
            run_line = addr & line_mask;
        }
        prev = addr;
    }
    trace.runs.push_back(run);
    return trace;
}

} // namespace ibs

#endif // IBS_TESTS_FLAT_TRACE_H
