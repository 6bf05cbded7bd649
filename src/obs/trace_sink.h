/**
 * @file
 * Perfetto-compatible trace-event exporter.
 *
 * Emits the chrome `traceEvents` JSON format (the profile format
 * Perfetto, chrome://tracing and speedscope all load):
 *
 *   {
 *     "displayTimeUnit": "ms",
 *     "traceEvents": [
 *       {"name": "cell 0:gs_mach", "cat": "sweep", "ph": "X",
 *        "ts": 1042, "dur": 3810, "pid": 1234, "tid": 2},
 *       {"name": "cache.l1.misses", "ph": "C", "ts": 99120,
 *        "pid": 1234, "tid": 1, "args": {"value": 5521}},
 *       ...
 *     ]
 *   }
 *
 * One complete ("X") span is recorded per sweep cell and per workload
 * materialization (via obs/timer.h), and one counter ("C") sample per
 * registry counter at finalization time. Timestamps are microseconds
 * on the steady clock since sink construction, so they are monotonic
 * per thread; tids are small dense integers assigned per OS thread.
 *
 * On top of those, the serving layer records *async nestable* spans
 * ("b"/"e" pairs matched by category + id + name) and *flow events*
 * ("s"/"t"/"f", matched by id) so a single request is one visual
 * track even though its phases run on different pool threads: the
 * handler opens an async span per request, and a flow arrow steps
 * from the accept through memo materialization into each cell's
 * complete span. Ids come from the caller (the server uses its
 * request sequence number), so concurrent requests never collide.
 *
 * Memory is bounded: events buffer in RAM only up to a rotation
 * threshold (65536 events; tests pass a smaller one to the
 * constructor), then spill to the output file incrementally. Each
 * flush appends the buffered batch inside the traceEvents array and
 * rewrites the closing bracket, so the file on disk is a complete,
 * valid JSON document after every flush — a long-running server can
 * flush periodically for days without growing the heap, and a crash
 * between flushes loses only the unflushed tail. flush() is also the
 * explicit hook the server's shutdown path calls before exit.
 *
 * Enabled by IBS_OBS_TRACE=<path>: the process-global sink then
 * exists and every ScopedTimer feeds it; the file is finalized at
 * process exit (or on an explicit write()). When the variable is
 * unset, global() is null and emission costs one pointer check.
 *
 * Events are serialized with the stats/report JSON emitter, so span
 * names with quotes, backslashes or control characters are escaped
 * per RFC 8259 and the output always re-parses.
 */

#ifndef IBS_OBS_TRACE_SINK_H
#define IBS_OBS_TRACE_SINK_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/report.h"

namespace ibs::obs {

/** Collects trace events and writes one traceEvents JSON file. */
class TraceEventSink
{
  public:
    /**
     * @param path output file, written incrementally by flush() and
     *        finalized by write() / the destructor
     * @param max_buffered_events buffered-event rotation threshold;
     *        0 means the default, 65536 events
     */
    explicit TraceEventSink(std::string path,
                            size_t max_buffered_events = 0);

    /** Writes the file (finalizes) if write() has not been called
     *  since the last recorded event. */
    ~TraceEventSink();

    TraceEventSink(const TraceEventSink &) = delete;
    TraceEventSink &operator=(const TraceEventSink &) = delete;

    /** Microseconds on the steady clock since construction. */
    uint64_t nowMicros() const;

    /** As nowMicros() for an already-taken time point (clamped to 0
     *  for points before construction). */
    uint64_t micros(std::chrono::steady_clock::time_point t) const;

    /**
     * Record a complete span ("ph":"X"). Thread-safe; the calling
     * thread's id becomes the event tid. May trigger a rotation
     * flush when the buffer threshold is reached.
     *
     * @param name span name (any bytes; escaped on export)
     * @param cat category string with static storage duration
     * @param ts_us start, microseconds since construction
     * @param dur_us duration in microseconds
     */
    void span(const std::string &name, const char *cat, uint64_t ts_us,
              uint64_t dur_us);

    /** Record a counter sample ("ph":"C"). Thread-safe. */
    void counter(const std::string &name, uint64_t ts_us,
                 uint64_t value);

    /**
     * Open an async nestable span ("ph":"b"). The viewer matches it
     * with the asyncEnd() carrying the same (cat, id, name) triple —
     * begin and end may come from different threads, which is the
     * point: the span tracks a logical operation (one server
     * request), not a thread.
     */
    void asyncBegin(const std::string &name, const char *cat,
                    uint64_t id, uint64_t ts_us);

    /** Close the matching async span ("ph":"e"). Thread-safe. */
    void asyncEnd(const std::string &name, const char *cat,
                  uint64_t id, uint64_t ts_us);

    /**
     * Flow events ("ph":"s"/"t"/"f"): one start, any number of
     * steps, one end, all matched by id. Each binds to the slice
     * enclosing it on its emitting thread, drawing arrows between
     * slices on different threads (the end event binds to its
     * enclosing slice via bp:"e").
     */
    void flowStart(const std::string &name, const char *cat,
                   uint64_t id, uint64_t ts_us);
    void flowStep(const std::string &name, const char *cat,
                  uint64_t id, uint64_t ts_us);
    void flowEnd(const std::string &name, const char *cat,
                 uint64_t id, uint64_t ts_us);

    /** Number of events recorded so far (buffered + spilled). */
    size_t eventCount() const;

    /** Events already spilled to disk by flushes. */
    size_t spilledCount() const;

    /**
     * Append all buffered events to the file and drop them from
     * memory. The file is a complete, valid trace document when this
     * returns. False (after a warning) on I/O failure; failed events
     * are discarded so memory stays bounded either way.
     */
    bool flush();

    /**
     * Assemble a document from the events still buffered in memory
     * (registry counters sampled when the registry is enabled, events
     * sorted by (ts, tid)). Diagnostic view — the authoritative
     * artifact is the file maintained by flush()/write().
     */
    Json build();

    /** Sample registry counters, flush, and finalize the file
     *  (trailing newline). False after a warning on I/O failure.
     *  Idempotent: calling again without new events or new flushes
     *  neither rewrites the file nor duplicates counter samples. */
    bool write();

    const std::string &path() const { return path_; }

    /**
     * The process-global sink: created from IBS_OBS_TRACE on first
     * use, null when the variable is unset and nothing was installed.
     */
    static TraceEventSink *global();

    /** Replace the global sink (tests); returns the previous one so
     *  callers can restore it. */
    static std::unique_ptr<TraceEventSink>
    exchangeGlobal(std::unique_ptr<TraceEventSink> sink);

  private:
    struct Event
    {
        Event() = default;
        Event(std::string n, const char *c, char p, uint64_t t,
              uint64_t d, uint64_t v, uint32_t i)
            : name(std::move(n)), cat(c), ph(p), ts(t), dur(d),
              value(v), tid(i)
        {}

        std::string name;
        const char *cat; ///< Static string or nullptr.
        char ph;         ///< 'X' span, 'C' counter, 'b'/'e' async,
                         ///< 's'/'t'/'f' flow.
        uint64_t ts;
        uint64_t dur;   ///< 'X' spans only.
        uint64_t value; ///< Counter value, or async/flow id.
        uint32_t tid;
    };

    Json eventJson(const Event &e) const;
    void record(Event event);
    bool flushLocked(std::vector<Event> events);
    void sampleCountersLocked(std::vector<Event> &out);

    std::string path_;
    size_t maxBuffered_;
    std::chrono::steady_clock::time_point epoch_;
    int pid_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::FILE *file_ = nullptr; ///< Open once spilling starts.
    long tailPos_ = 0;   ///< Offset of the closing "]}" suffix.
    size_t spilled_ = 0; ///< Events already on disk.
    bool ioFailed_ = false;
    bool written_ = false; ///< Finalized and nothing new since.
};

} // namespace ibs::obs

#endif // IBS_OBS_TRACE_SINK_H
