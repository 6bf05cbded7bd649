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

#include <cstdint>
#include <vector>

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

} // namespace ibs

#endif // IBS_TESTS_FLAT_TRACE_H
