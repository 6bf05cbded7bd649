/**
 * @file
 * Tests for the observability layer (src/obs/): counter registry
 * merge semantics and cross-thread determinism, trace-event export
 * (escaping, concurrency, monotonicity, empty runs), scoped timers,
 * the leveled logger, and the sweep progress reporter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace_sink.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "workload/ibs.h"

namespace ibs {
namespace {

/** Enable the global registry for one test, restoring the previous
 *  gate and wiping test counters on the way out. */
class RegistryGuard
{
  public:
    RegistryGuard() : was_(obs::Registry::global().enabled())
    {
        obs::Registry::global().reset();
        obs::Registry::global().setEnabled(true);
    }
    ~RegistryGuard()
    {
        obs::Registry::global().reset();
        obs::Registry::global().setEnabled(was_);
    }

  private:
    bool was_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** `prefix` followed by the decimal `n`, built by appending: GCC 12
 *  reports a false -Wrestrict overlap for "literal" +
 *  std::to_string(n), which prepends into the temporary. */
std::string
numbered(std::string prefix, uint64_t n)
{
    prefix += std::to_string(n);
    return prefix;
}

TEST(ObsRegistry, CountersSumAcrossCallsAndThreads)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();
    reg.add("t.a.x", 2);
    reg.add("t.a.x", 3);

    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&reg] {
            for (int i = 0; i < 100; ++i)
                reg.add("t.a.y", 1);
        });
    }
    for (auto &w : workers)
        w.join();

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("t.a.x"), 5u);
    EXPECT_EQ(snap.at("t.a.y"), 400u);
}

TEST(ObsRegistry, ResetClearsButSnapshotOrdersKeys)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();
    reg.add("t.z.last", 1);
    reg.add("t.a.first", 1);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.begin()->first, "t.a.first");

    const Json j = reg.snapshotJson();
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.at("t.z.last").asNumber(), 1);

    reg.reset();
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ObsRegistry, SweepCountersAreThreadCountInvariant)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();

    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso),
                       makeSpec(SpecBenchmark::Gcc)},
                      5000);
    const std::vector<FetchConfig> configs = {
        economyBaseline(),
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2)};

    std::map<std::string, uint64_t> baseline;
    for (unsigned threads : {1u, 4u, 13u}) {
        reg.reset();
        runSweep(suite, configs, threads);
        const auto snap = reg.snapshot();
        EXPECT_FALSE(snap.empty());
        EXPECT_TRUE(snap.count("cache.l1.accesses"));
        EXPECT_TRUE(snap.count("fetch.engine.instructions"));
        if (threads == 1)
            baseline = snap;
        else
            EXPECT_EQ(snap, baseline)
                << "counter snapshot differs at " << threads
                << " threads";
    }
    EXPECT_EQ(baseline.at("fetch.engine.instructions"),
              2u * 2u * 5000u);
}

TEST(ObsRegistry, Log2BucketEdgesAndHistogramQuantiles)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();

    // Values 0 and 1 share bucket 0 (edge 1); bucket k holds
    // [2^k, 2^(k+1)) with inclusive upper edge 2^(k+1)-1.
    EXPECT_EQ(obs::log2BucketUpperEdge(0), 1u);
    EXPECT_EQ(obs::log2BucketUpperEdge(1), 1u);
    EXPECT_EQ(obs::log2BucketUpperEdge(2), 3u);
    EXPECT_EQ(obs::log2BucketUpperEdge(3), 3u);
    EXPECT_EQ(obs::log2BucketUpperEdge(4), 7u);
    EXPECT_EQ(obs::log2BucketUpperEdge(1000), 1023u);
    EXPECT_EQ(obs::log2BucketUpperEdge(1024), 2047u);

    for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 1024u})
        reg.observe("t.hist.q", v);
    const auto hists = reg.snapshotHistograms();
    const obs::HistogramSnapshot &h = hists.at("t.hist.q");
    EXPECT_EQ(h.counts[0], 2u); // 0 and 1.
    EXPECT_EQ(h.counts[1], 2u); // 2 and 3.
    EXPECT_EQ(h.counts[2], 1u); // 4.
    EXPECT_EQ(h.counts[10], 1u); // 1024.
    EXPECT_EQ(h.count, 6u);
    EXPECT_EQ(h.sum, 1034u);
    EXPECT_EQ(h.overflow, 0u);
    // Quantiles resolve to the upper edge of the lowest occupied
    // bucket reaching the target mass.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(0.5), 3u);    // target 3, reached at b1.
    EXPECT_EQ(h.quantile(1.0), 2047u); // All mass: last bucket.

    // Empty histogram: 0. All-overflow histogram: UINT64_MAX.
    obs::HistogramSnapshot empty;
    EXPECT_EQ(empty.quantile(0.5), 0u);
    reg.observe("t.hist.over", uint64_t{1} << 41);
    const obs::HistogramSnapshot over =
        reg.snapshotHistograms().at("t.hist.over");
    EXPECT_EQ(over.overflow, 1u);
    EXPECT_EQ(over.quantile(0.5), UINT64_MAX);

    // The stats frame's encoding: both histograms (one with an
    // overflow) round-trip exactly, through the wire text too.
    const auto all = reg.snapshotHistograms();
    EXPECT_TRUE(obs::histogramsFromJson(Json::parse(
                    obs::histogramsToJson(all).dump(0))) == all);

    // The decoder reads network input, so every broken invariant
    // throws. counts[0] and counts[1] are set by each case, and each
    // case passes every check but the one it names: the negative
    // bucket would add up to `count` as a wrapped uint64, the
    // fractional ones once truncated, the wrapping ones modulo 2^64.
    const auto decode = [](Json c0, Json c1, size_t buckets,
                           uint64_t overflow, uint64_t count) {
        Json counts = Json::array().push(std::move(c0)).push(
            std::move(c1));
        for (size_t k = 2; k < buckets; ++k)
            counts.push(Json::number(uint64_t{0}));
        return obs::histogramsFromJson(Json::object().set(
            "t.hist.bad",
            Json::object()
                .set("counts", std::move(counts))
                .set("overflow", Json::number(overflow))
                .set("sum", Json::number(uint64_t{9}))
                .set("count", Json::number(count))));
    };
    const size_t n = obs::kHistogramBuckets;
    EXPECT_EQ(decode(Json::number(2), Json::number(1), n, 1, 4)
                  .at("t.hist.bad")
                  .count,
              4u);
    EXPECT_THROW(
        decode(Json::number(-1), Json::number(0), n, 0, UINT64_MAX),
        std::invalid_argument); // Negative count.
    EXPECT_THROW(decode(Json::number(1.5), Json::number(0.5), n, 0, 1),
                 std::invalid_argument); // Fractional counts.
    EXPECT_THROW(
        decode(Json::number(UINT64_MAX), Json::number(1), n, 0, 0),
        std::invalid_argument); // Buckets that wrap past 2^64.
    EXPECT_THROW(decode(Json::number(1), Json::number(0), n - 1, 0, 1),
                 std::invalid_argument); // One bucket short.
    EXPECT_THROW(decode(Json::number(1), Json::number(0), n + 1, 0, 1),
                 std::invalid_argument); // One bucket too many.
    EXPECT_THROW(decode(Json::number(1), Json::number(0), n, 1, 1),
                 std::invalid_argument); // Buckets + overflow > count.
    EXPECT_THROW(decode(Json::number(1), Json::number(0), n, 0, 2),
                 std::invalid_argument); // Buckets + overflow < count.
    EXPECT_THROW(obs::histogramsFromJson(Json::array()),
                 std::invalid_argument);
    EXPECT_THROW(obs::histogramsFromJson(
                     Json::object().set("t.hist.bad", Json::number(1))),
                 std::invalid_argument);
}

TEST(ObsRegistry, HistogramsMergeAcrossThreadsByBucketAddition)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&reg] {
            for (int i = 0; i < 100; ++i)
                reg.observe("t.hist.merge", 5);
        });
    }
    for (auto &w : workers)
        w.join();
    const obs::HistogramSnapshot h =
        reg.snapshotHistograms().at("t.hist.merge");
    EXPECT_EQ(h.counts[2], 400u); // 5 lands in [4, 8).
    EXPECT_EQ(h.count, 400u);
    EXPECT_EQ(h.sum, 2000u);
}

TEST(ObsRegistry, SweepHistogramsAreThreadCountInvariant)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();

    SuiteTraces suite({makeSpec(SpecBenchmark::Espresso),
                       makeSpec(SpecBenchmark::Gcc)},
                      5000);
    const std::vector<FetchConfig> configs = {
        economyBaseline(),
        withOnChipL2(economyBaseline(), 64 * 1024, 64, 2)};

    std::map<std::string, obs::HistogramSnapshot> baseline;
    for (unsigned threads : {1u, 4u, 13u}) {
        reg.reset();
        runSweep(suite, configs, threads);
        const auto hists = reg.snapshotHistograms();
        ASSERT_TRUE(hists.count("sim.cell.instructions"));
        if (threads == 1)
            baseline = hists;
        else
            EXPECT_TRUE(hists == baseline)
                << "histogram snapshot differs at " << threads
                << " threads";
    }
    // One observation per cell, each the cell's instruction count.
    const obs::HistogramSnapshot &cells =
        baseline.at("sim.cell.instructions");
    EXPECT_EQ(cells.count, 4u);
    EXPECT_EQ(cells.sum, 4u * 5000u);
}

TEST(ObsRegistry, SnapshotJsonHoldsOnlyCounters)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();

    // Histograms stay out of the flat view, whatever their names:
    // their counts and sums live in snapshotHistograms() alone.
    reg.add("t.json.counter", 7);
    reg.observe("t.json.h", 3);
    reg.observe("t.json.h", 3);
    reg.observe("t.json.counter", 5);
    const Json j = reg.snapshotJson();
    ASSERT_EQ(j.size(), 1u);
    EXPECT_EQ(j.at("t.json.counter").asNumber(), 7);
    EXPECT_EQ(reg.snapshotHistograms().at("t.json.h").sum, 6u);
}

TEST(ObsRegistry, ResetClearsHistogramShards)
{
    RegistryGuard guard;
    obs::Registry &reg = obs::Registry::global();
    reg.observe("t.hist.reset", 42);
    ASSERT_EQ(reg.snapshotHistograms().size(), 1u);
    reg.reset();
    EXPECT_TRUE(reg.snapshotHistograms().empty());
    // And the shard is still writable after the reset.
    reg.observe("t.hist.reset", 1);
    EXPECT_EQ(reg.snapshotHistograms().at("t.hist.reset").count, 1u);
}

TEST(ObsTraceSink, AsyncSpansAndFlowsCarryIdsAndRoundTrip)
{
    const bool was = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(false);
    const std::string path =
        testing::TempDir() + "obs_async_trace.json";
    constexpr uint64_t ID = 7;
    {
        obs::TraceEventSink sink(path);
        sink.asyncBegin("req a", "serve.req", ID, 10);
        sink.flowStart("req a", "serve.req", ID, 10);
        // The step comes from a different thread — the whole point
        // of async spans and flows.
        std::thread worker([&sink] {
            sink.flowStep("req a", "serve.req", ID, 20);
        });
        worker.join();
        sink.flowEnd("req a", "serve.req", ID, 30);
        sink.asyncEnd("req a", "serve.req", ID, 40);
        ASSERT_TRUE(sink.write());
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    std::map<std::string, int> phases;
    std::map<double, int> tids;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const std::string ph = e.at("ph").asString();
        ++phases[ph];
        // Every async/flow event carries the pairing id and cat.
        EXPECT_EQ(e.at("id").asNumber(), static_cast<double>(ID));
        EXPECT_EQ(e.at("cat").asString(), "serve.req");
        EXPECT_EQ(e.at("name").asString(), "req a");
        if (ph == "f") { // Flow end binds to the enclosing slice end.
            EXPECT_EQ(e.at("bp").asString(), "e");
        }
        ++tids[e.at("tid").asNumber()];
    }
    EXPECT_EQ(phases["b"], 1);
    EXPECT_EQ(phases["e"], 1);
    EXPECT_EQ(phases["s"], 1);
    EXPECT_EQ(phases["t"], 1);
    EXPECT_EQ(phases["f"], 1);
    EXPECT_EQ(tids.size(), 2u) << "flow step kept the worker tid";
    obs::Registry::global().setEnabled(was);
    std::remove(path.c_str());
}

TEST(ObsTraceSink, EscapesAwkwardSpanNames)
{
    const std::string path =
        testing::TempDir() + "obs_escape_trace.json";
    const std::string awkward =
        "cell \"q\\u\" \\ tab\tnewline\n:done";
    {
        obs::TraceEventSink sink(path);
        sink.span(awkward, "test", 1, 2);
        ASSERT_TRUE(sink.write());
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    bool found = false;
    for (size_t i = 0; i < events.size(); ++i) {
        if (events.at(i).at("name").asString() == awkward)
            found = true;
    }
    EXPECT_TRUE(found) << "escaped span name did not round-trip";
    std::remove(path.c_str());
}

TEST(ObsTraceSink, EmptyRunProducesValidEmptyTrace)
{
    const bool was = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(false);
    const std::string path =
        testing::TempDir() + "obs_empty_trace.json";
    {
        obs::TraceEventSink sink(path);
        ASSERT_TRUE(sink.write());
    }
    const Json doc = Json::parse(readFile(path));
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    EXPECT_TRUE(doc.at("traceEvents").isArray());
    EXPECT_EQ(doc.at("traceEvents").size(), 0u);
    obs::Registry::global().setEnabled(was);
    std::remove(path.c_str());
}

TEST(ObsTraceSink, ConcurrentSpansAllSurviveAndStayMonotonicPerTid)
{
    const bool was = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(false);
    const std::string path =
        testing::TempDir() + "obs_concurrent_trace.json";
    constexpr int THREADS = 8;
    constexpr int SPANS = 50;
    {
        obs::TraceEventSink sink(path);
        std::vector<std::thread> workers;
        for (int t = 0; t < THREADS; ++t) {
            workers.emplace_back([&sink, t] {
                for (int i = 0; i < SPANS; ++i) {
                    const uint64_t ts = sink.nowMicros();
                    sink.span(numbered(numbered("w", t) + "/", i),
                              "test", ts, 1);
                }
            });
        }
        for (auto &w : workers)
            w.join();
        EXPECT_EQ(sink.eventCount(),
                  static_cast<size_t>(THREADS * SPANS));
        ASSERT_TRUE(sink.write());
    }

    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), static_cast<size_t>(THREADS * SPANS));
    // One pid for the whole file; per-tid timestamps non-decreasing
    // (the sink's stable sort must preserve emission order per
    // thread).
    std::map<double, double> last_ts;
    const double pid = events.at(0).at("pid").asNumber();
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        EXPECT_EQ(e.at("pid").asNumber(), pid);
        const double tid = e.at("tid").asNumber();
        const double ts = e.at("ts").asNumber();
        if (last_ts.count(tid)) {
            EXPECT_LE(last_ts[tid], ts) << "tid " << tid;
        }
        last_ts[tid] = ts;
    }
    obs::Registry::global().setEnabled(was);
    std::remove(path.c_str());
}

TEST(ObsTraceSink, RewriteSamplesCountersOnceEach)
{
    RegistryGuard guard;
    obs::Registry::global().add("t.rewrite.counter", 7);
    const std::string path =
        testing::TempDir() + "obs_rewrite_trace.json";
    {
        obs::TraceEventSink sink(path);
        ASSERT_TRUE(sink.write());
        ASSERT_TRUE(sink.write()); // Rewrite must not duplicate.
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    size_t samples = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.at("ph").asString() == "C" &&
            e.at("name").asString() == "t.rewrite.counter") {
            ++samples;
            EXPECT_EQ(e.at("args").at("value").asNumber(), 7);
        }
    }
    EXPECT_EQ(samples, 1u);
    std::remove(path.c_str());
}

TEST(ObsTimer, FeedsInstalledGlobalSinkAndMeasures)
{
    const std::string path =
        testing::TempDir() + "obs_timer_trace.json";
    auto prev = obs::TraceEventSink::exchangeGlobal(
        std::make_unique<obs::TraceEventSink>(path));

    {
        obs::ScopedTimer timer("unit phase", "test");
        EXPECT_GE(timer.seconds(), 0.0);
        timer.stop();
        const double frozen = timer.seconds();
        timer.stop(); // Idempotent: no second span, no new end point.
        EXPECT_EQ(timer.seconds(), frozen);
    }

    obs::TraceEventSink *sink = obs::TraceEventSink::global();
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(sink->eventCount(), 1u);

    // Restore: the test sink writes its file on destruction.
    obs::TraceEventSink::exchangeGlobal(std::move(prev));
    std::remove(path.c_str());
}

TEST(ObsTimer, WithoutSinkStillMeasures)
{
    auto prev = obs::TraceEventSink::exchangeGlobal(nullptr);
    obs::ScopedTimer timer("no sink");
    timer.stop();
    EXPECT_GE(timer.seconds(), 0.0);
    obs::TraceEventSink::exchangeGlobal(std::move(prev));
}

TEST(ObsLog, LevelGatesAndFormatsMessages)
{
    const obs::LogLevel was = obs::logLevel();
    obs::setLogLevel(obs::LogLevel::Warn);
    EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Error));
    EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Warn));
    EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Info));

    ::testing::internal::CaptureStderr();
    obs::log(obs::LogLevel::Info, "suppressed %d", 1);
    obs::log(obs::LogLevel::Warn, "kept %s %d", "message", 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("suppressed"), std::string::npos) << err;
    EXPECT_NE(err.find("ibs [warn]: kept message 2\n"),
              std::string::npos)
        << err;
    obs::setLogLevel(was);
}

TEST(ObsLog, LogOncePrintsOncePerKey)
{
    const obs::LogLevel was = obs::logLevel();
    obs::setLogLevel(obs::LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(obs::logOnce(obs::LogLevel::Warn, "obs-test-key-1",
                             "first %d", 1));
    EXPECT_FALSE(obs::logOnce(obs::LogLevel::Warn, "obs-test-key-1",
                              "second %d", 2));
    EXPECT_TRUE(obs::logOnce(obs::LogLevel::Warn, "obs-test-key-2",
                             "other"));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("first 1"), std::string::npos) << err;
    EXPECT_EQ(err.find("second 2"), std::string::npos) << err;
    EXPECT_NE(err.find("other"), std::string::npos) << err;
    obs::setLogLevel(was);
}

TEST(ObsProgress, DisabledByEnvironmentIsSilent)
{
    ::setenv("IBS_PROGRESS", "0", 1);
    ::testing::internal::CaptureStderr();
    {
        obs::SweepProgress progress("test", 3);
        EXPECT_FALSE(progress.active());
        for (int i = 0; i < 3; ++i)
            progress.cellDone(1000);
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    ::unsetenv("IBS_PROGRESS");
}

TEST(ObsProgress, ForcedOnReportsCompletion)
{
    ::setenv("IBS_PROGRESS", "1", 1);
    ::testing::internal::CaptureStderr();
    {
        obs::SweepProgress progress("test", 2);
        EXPECT_TRUE(progress.active());
        progress.cellDone(500);
        progress.cellDone(500);
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("test: 2/2 cells (100.0%)"), std::string::npos)
        << err;
    EXPECT_NE(err.find("instr/s"), std::string::npos) << err;
    ::unsetenv("IBS_PROGRESS");
}

TEST(ObsTraceSink, FlushKeepsTheFileValidAfterEveryFlush)
{
    const bool was = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(false);
    const std::string path =
        testing::TempDir() + "obs_flush_trace.json";
    {
        obs::TraceEventSink sink(path, 1000);
        for (int i = 0; i < 5; ++i)
            sink.span("first batch " + std::to_string(i), "test",
                      10 + i, 1);
        ASSERT_TRUE(sink.flush());
        EXPECT_EQ(sink.spilledCount(), 5u);

        // The file is already a complete document mid-run.
        const Json mid = Json::parse(readFile(path));
        EXPECT_EQ(mid.at("traceEvents").size(), 5u);

        for (int i = 0; i < 7; ++i)
            sink.span("second batch " + std::to_string(i), "test",
                      100 + i, 1);
        ASSERT_TRUE(sink.flush());
        EXPECT_EQ(sink.spilledCount(), 12u);
        const Json mid2 = Json::parse(readFile(path));
        EXPECT_EQ(mid2.at("traceEvents").size(), 12u);

        sink.span("tail", "test", 500, 1);
        ASSERT_TRUE(sink.write()); // Finalize flushes the rest.
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), 13u);
    std::map<std::string, int> names;
    for (size_t i = 0; i < events.size(); ++i)
        ++names[events.at(i).at("name").asString()];
    EXPECT_EQ(names.size(), 13u); // No event lost or duplicated.
    EXPECT_EQ(names["tail"], 1);
    obs::Registry::global().setEnabled(was);
    std::remove(path.c_str());
}

TEST(ObsTraceSink, RotationSpillsInsteadOfBufferingUnboundedly)
{
    const bool was = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(false);
    const std::string path =
        testing::TempDir() + "obs_rotation_trace.json";
    constexpr size_t THRESHOLD = 8;
    constexpr size_t EVENTS = 103;
    {
        obs::TraceEventSink sink(path, THRESHOLD);
        for (size_t i = 0; i < EVENTS; ++i)
            sink.span(numbered("e", i), "test", i, 1);
        // Rotation kept the in-memory buffer under the threshold the
        // whole time: everything but the tail is already on disk.
        EXPECT_GE(sink.spilledCount(),
                  EVENTS - THRESHOLD);
        EXPECT_EQ(sink.eventCount(), EVENTS);
        ASSERT_TRUE(sink.write());
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), EVENTS);
    std::map<std::string, int> names;
    for (size_t i = 0; i < events.size(); ++i)
        ++names[events.at(i).at("name").asString()];
    for (size_t i = 0; i < EVENTS; ++i)
        EXPECT_EQ(names[numbered("e", i)], 1) << i;
    obs::Registry::global().setEnabled(was);
    std::remove(path.c_str());
}

TEST(ObsTraceSink, FlushThenWriteSamplesCountersExactlyOnce)
{
    RegistryGuard guard;
    obs::Registry::global().add("t.flushwrite.counter", 11);
    const std::string path =
        testing::TempDir() + "obs_flushwrite_trace.json";
    {
        obs::TraceEventSink sink(path, 1000);
        sink.span("before flush", "test", 1, 1);
        ASSERT_TRUE(sink.flush());
        sink.span("after flush", "test", 2, 1);
        ASSERT_TRUE(sink.write());
    }
    const Json doc = Json::parse(readFile(path));
    const Json &events = doc.at("traceEvents");
    size_t spans = 0, samples = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.at("ph").asString() == "X")
            ++spans;
        if (e.at("ph").asString() == "C" &&
            e.at("name").asString() == "t.flushwrite.counter")
            ++samples;
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(samples, 1u);
    std::remove(path.c_str());
}

TEST(ObsProgress, SingleSweepOnATtyRewritesInPlace)
{
    ::setenv("IBS_PROGRESS", "1", 1);
    obs::SweepProgress::overrideTtyForTest(1);
    ::testing::internal::CaptureStderr();
    {
        obs::SweepProgress progress("solo", 2);
        EXPECT_EQ(obs::SweepProgress::activeCount(), 1);
        progress.cellDone(100);
        progress.cellDone(100);
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find('\r'), std::string::npos) << err;
    EXPECT_NE(err.find("solo: 2/2 cells (100.0%)"),
              std::string::npos)
        << err;
    obs::SweepProgress::overrideTtyForTest(-1);
    ::unsetenv("IBS_PROGRESS");
}

TEST(ObsProgress, ConcurrentSweepsSuspendInPlaceRewriting)
{
    ::setenv("IBS_PROGRESS", "1", 1);
    obs::SweepProgress::overrideTtyForTest(1);
    ::testing::internal::CaptureStderr();
    {
        obs::SweepProgress a("alpha", 2);
        obs::SweepProgress b("beta", 2);
        EXPECT_EQ(obs::SweepProgress::activeCount(), 2);
        // Interleaved completions from two live sweeps.
        a.cellDone(100);
        b.cellDone(100);
        a.cellDone(100);
        b.cellDone(100);
    }
    EXPECT_EQ(obs::SweepProgress::activeCount(), 0);
    const std::string err = ::testing::internal::GetCapturedStderr();
    // With >1 active sweep the TTY mode must fall back to plain
    // newline-terminated lines: no carriage returns, no erase codes.
    EXPECT_EQ(err.find('\r'), std::string::npos) << err;
    EXPECT_EQ(err.find("\033[K"), std::string::npos) << err;
    EXPECT_NE(err.find("alpha: 2/2 cells (100.0%)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("beta: 2/2 cells (100.0%)"),
              std::string::npos)
        << err;
    // Every line is whole: the two labels never share a line.
    std::stringstream lines(err);
    std::string line;
    while (std::getline(lines, line)) {
        const bool has_alpha =
            line.find("alpha") != std::string::npos;
        const bool has_beta =
            line.find("beta") != std::string::npos;
        EXPECT_FALSE(has_alpha && has_beta) << line;
    }
    obs::SweepProgress::overrideTtyForTest(-1);
    ::unsetenv("IBS_PROGRESS");
}

TEST(ObsProgress, InPlaceModeResumesAfterConcurrencyDrops)
{
    ::setenv("IBS_PROGRESS", "1", 1);
    obs::SweepProgress::overrideTtyForTest(1);
    ::testing::internal::CaptureStderr();
    {
        auto a = std::make_unique<obs::SweepProgress>("one", 2);
        {
            obs::SweepProgress b("two", 1);
            b.cellDone(100); // Plain: two sweeps are active.
        }
        EXPECT_EQ(obs::SweepProgress::activeCount(), 1);
        a->cellDone(100);
        a->cellDone(100); // Back to sole ownership: may rewrite.
        a.reset();
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    // The lone survivor's final line used the in-place mode again.
    EXPECT_NE(err.find('\r'), std::string::npos) << err;
    EXPECT_NE(err.find("one: 2/2 cells (100.0%)"),
              std::string::npos)
        << err;
    obs::SweepProgress::overrideTtyForTest(-1);
    ::unsetenv("IBS_PROGRESS");
}

} // namespace
} // namespace ibs
