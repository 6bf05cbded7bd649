/**
 * @file
 * TraceEventSink implementation.
 *
 * On-disk layout maintained by flushLocked():
 *
 *   {"displayTimeUnit": "ms", "traceEvents": [
 *   <event>,
 *   <event>
 *   ]}
 *
 * Each flush seeks back over the closing "]}" suffix, appends the
 * next batch, and rewrites the suffix, so the document parses after
 * every flush while events stream out incrementally.
 */

#include "obs/trace_sink.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/log.h"
#include "obs/registry.h"

namespace ibs::obs {

namespace {

constexpr size_t kDefaultBufferEvents = 65536;

/** Small dense thread id for trace events (1, 2, ... per OS thread,
 *  in first-use order). */
uint32_t
currentTid()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/**
 * Owner of the process-global sink. Function-local static so the
 * sink's exit-time flush runs before the stdio teardown, and the
 * constructor touches Registry::global() first so the registry
 * (sampled during that flush) is destroyed strictly after the sink.
 */
struct GlobalSink
{
    std::unique_ptr<TraceEventSink> sink;

    GlobalSink()
    {
        Registry::global();
        if (const char *env = std::getenv("IBS_OBS_TRACE");
            env && *env != '\0')
            sink = std::make_unique<TraceEventSink>(env);
    }
};

GlobalSink &
globalSink()
{
    static GlobalSink owner;
    return owner;
}

} // namespace

TraceEventSink::TraceEventSink(std::string path,
                               size_t max_buffered_events)
    : path_(std::move(path)),
      maxBuffered_(max_buffered_events ? max_buffered_events
                                       : kDefaultBufferEvents),
      epoch_(std::chrono::steady_clock::now()),
      pid_(static_cast<int>(::getpid()))
{
}

TraceEventSink::~TraceEventSink()
{
    if (!written_)
        write();
    if (file_)
        std::fclose(file_);
}

uint64_t
TraceEventSink::nowMicros() const
{
    return micros(std::chrono::steady_clock::now());
}

uint64_t
TraceEventSink::micros(std::chrono::steady_clock::time_point t) const
{
    if (t <= epoch_)
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t -
                                                              epoch_)
            .count());
}

void
TraceEventSink::record(Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
    written_ = false;
    if (events_.size() < maxBuffered_)
        return;
    // Rotation: spill the full buffer so a long-running process
    // never accumulates an unbounded event vector.
    std::vector<Event> batch = std::move(events_);
    events_.clear();
    flushLocked(std::move(batch));
}

void
TraceEventSink::span(const std::string &name, const char *cat,
                     uint64_t ts_us, uint64_t dur_us)
{
    record(Event{name, cat, 'X', ts_us, dur_us, 0, currentTid()});
}

void
TraceEventSink::counter(const std::string &name, uint64_t ts_us,
                        uint64_t value)
{
    record(Event{name, nullptr, 'C', ts_us, 0, value, currentTid()});
}

void
TraceEventSink::asyncBegin(const std::string &name, const char *cat,
                           uint64_t id, uint64_t ts_us)
{
    record(Event{name, cat, 'b', ts_us, 0, id, currentTid()});
}

void
TraceEventSink::asyncEnd(const std::string &name, const char *cat,
                         uint64_t id, uint64_t ts_us)
{
    record(Event{name, cat, 'e', ts_us, 0, id, currentTid()});
}

void
TraceEventSink::flowStart(const std::string &name, const char *cat,
                          uint64_t id, uint64_t ts_us)
{
    record(Event{name, cat, 's', ts_us, 0, id, currentTid()});
}

void
TraceEventSink::flowStep(const std::string &name, const char *cat,
                         uint64_t id, uint64_t ts_us)
{
    record(Event{name, cat, 't', ts_us, 0, id, currentTid()});
}

void
TraceEventSink::flowEnd(const std::string &name, const char *cat,
                        uint64_t id, uint64_t ts_us)
{
    record(Event{name, cat, 'f', ts_us, 0, id, currentTid()});
}

size_t
TraceEventSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size() + spilled_;
}

size_t
TraceEventSink::spilledCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spilled_;
}

Json
TraceEventSink::eventJson(const Event &e) const
{
    Json event = Json::object().set("name", Json::string(e.name));
    if (e.cat)
        event.set("cat", Json::string(e.cat));
    event.set("ph", Json::string(std::string(1, e.ph)))
        .set("ts", Json::number(e.ts));
    if (e.ph == 'X')
        event.set("dur", Json::number(e.dur));
    event.set("pid", Json::number(int64_t{pid_}))
        .set("tid", Json::number(uint64_t{e.tid}));
    if (e.ph == 'C')
        event.set("args",
                  Json::object().set("value", Json::number(e.value)));
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 's' || e.ph == 't' ||
        e.ph == 'f')
        event.set("id", Json::number(e.value));
    if (e.ph == 'f')
        event.set("bp", Json::string("e"));
    return event;
}

void
TraceEventSink::sampleCountersLocked(std::vector<Event> &out)
{
    Registry &registry = Registry::global();
    if (!registry.enabled())
        return;
    const uint64_t now = nowMicros();
    const uint32_t tid = currentTid();
    for (const auto &[name, value] : registry.snapshot())
        out.push_back(Event{name, nullptr, 'C', now, 0, value, tid});
}

bool
TraceEventSink::flushLocked(std::vector<Event> events)
{
    if (ioFailed_)
        return false; // Drop: memory stays bounded on a dead disk.
    if (!file_) {
        file_ = std::fopen(path_.c_str(), "wb");
        if (!file_) {
            warn("TraceEventSink: cannot open %s for writing",
                 path_.c_str());
            ioFailed_ = true;
            return false;
        }
        std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
                   file_);
    } else {
        std::fseek(file_, tailPos_, SEEK_SET);
    }

    // Sort within the batch for viewers; stable keeps each thread's
    // events in emission order where timestamps tie, so per-tid
    // timestamps stay monotonic within any single-flush trace.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts != b.ts ? a.ts < b.ts
                                             : a.tid < b.tid;
                     });
    for (const Event &e : events) {
        if (spilled_ > 0)
            std::fputc(',', file_);
        std::fputc('\n', file_);
        const std::string text = eventJson(e).dump(0);
        std::fwrite(text.data(), 1, text.size(), file_);
        ++spilled_;
    }
    tailPos_ = std::ftell(file_);
    std::fputs("\n]}\n", file_);
    if (std::fflush(file_) != 0 || std::ferror(file_)) {
        warn("TraceEventSink: short write to %s", path_.c_str());
        ioFailed_ = true;
        return false;
    }
    return true;
}

bool
TraceEventSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.empty() && file_)
        return !ioFailed_;
    std::vector<Event> batch = std::move(events_);
    events_.clear();
    return flushLocked(std::move(batch));
}

bool
TraceEventSink::write()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (written_ && events_.empty() && file_)
        return !ioFailed_; // Finalized already; nothing new.
    std::vector<Event> batch = std::move(events_);
    events_.clear();
    sampleCountersLocked(batch);
    const bool ok = flushLocked(std::move(batch));
    written_ = true;
    return ok;
}

TraceEventSink *
TraceEventSink::global()
{
    return globalSink().sink.get();
}

std::unique_ptr<TraceEventSink>
TraceEventSink::exchangeGlobal(std::unique_ptr<TraceEventSink> sink)
{
    GlobalSink &owner = globalSink();
    std::unique_ptr<TraceEventSink> old = std::move(owner.sink);
    owner.sink = std::move(sink);
    return old;
}

} // namespace ibs::obs
