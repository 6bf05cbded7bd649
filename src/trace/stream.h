/**
 * @file
 * Trace-stream abstraction.
 *
 * A TraceStream produces TraceRecords one at a time. Traces are
 * synthesized on demand and never stored. WorkloadModel, the merged
 * user+OS reference stream, is the one producer the products run; the
 * drivers that read data references (FetchEngine::run,
 * DecstationModel::run) replay it record by record. VectorTraceStream
 * feeds hand-built records to the same drivers.
 */

#ifndef IBS_TRACE_STREAM_H
#define IBS_TRACE_STREAM_H

#include <cstddef>
#include <utility>
#include <vector>

#include "trace/record.h"

namespace ibs {

/** Abstract source of trace records. */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /**
     * Produce the next record.
     *
     * @param rec receives the record on success
     * @retval true a record was produced
     * @retval false the stream is exhausted
     */
    virtual bool next(TraceRecord &rec) = 0;
};

/** Stream over an in-memory vector of records. */
class VectorTraceStream : public TraceStream
{
  public:
    explicit VectorTraceStream(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

  private:
    std::vector<TraceRecord> records_;
    size_t pos_ = 0;
};

} // namespace ibs

#endif // IBS_TRACE_STREAM_H
