/**
 * @file
 * Tests for the sweep server: wire protocol edge cases, admission
 * control, the trace memo, graceful shutdown, and — the load-bearing
 * guarantee — that a sweep answered over the wire is bit-identical
 * to the same cells run directly through SuiteTraces::runOne.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/prom.h"
#include "obs/registry.h"
#include "replay_oracle.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/memo.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/runner.h"
#include "stats/rng.h"
#include "workload/ibs.h"

namespace {

using namespace ibs;
using namespace ibs::serve;

constexpr uint64_t kInstr = 20000;

/** Small, admit-everything config for most tests. */
ServerConfig
testConfig()
{
    ServerConfig config;
    config.port = 0;
    config.maxInflight = 4;
    config.memoBytes = 64ull << 20;
    config.maxTotalInstructions = 1'000'000'000;
    return config;
}

std::vector<std::string>
testWorkloads()
{
    return {"gs.mach", "nroff.mach"};
}

/** The specs of testWorkloads(), in the same order. */
std::vector<WorkloadSpec>
testSpecs()
{
    std::vector<WorkloadSpec> specs;
    for (const std::string &name : testWorkloads()) {
        for (const WorkloadSpec &w : ibsSuite(OsType::Mach)) {
            if (w.name == name)
                specs.push_back(w);
        }
    }
    return specs;
}

uint64_t
statU64(const Json &cell, const char *key)
{
    return static_cast<uint64_t>(
        cell.at("stats").at(key).asNumber());
}

/** One frame as it travels: big-endian u32 length, then payload. */
std::string
wireFrame(const std::string &payload)
{
    const uint32_t len = static_cast<uint32_t>(payload.size());
    std::string frame = {static_cast<char>(len >> 24),
                         static_cast<char>(len >> 16),
                         static_cast<char>(len >> 8),
                         static_cast<char>(len)};
    return frame + payload;
}

TEST(Serve, PingAndStatsRoundTrip)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());
    EXPECT_TRUE(client.ping());

    const Json stats = client.stats();
    EXPECT_EQ(stats.at("type").asString(), "stats");
    // The ping was counted before the stats request was answered.
    EXPECT_GE(stats.at("counters").at("requests").asNumber(), 1.0);
    EXPECT_EQ(stats.at("max_inflight").asNumber(), 4.0);
    EXPECT_EQ(stats.at("memo").at("entries").asNumber(), 0.0);
}

TEST(Serve, SweepMatchesDirectRunExactly)
{
    // The L2 class is derived from a shared miss stream
    // (sim/collapse.h), twice, next to a config replayed in full:
    // both of runOne's paths reach the wire.
    const std::vector<std::string> config_names = {
        "economy", "high_performance_l2", "high_performance_l2"};

    Server server(testConfig());
    server.start();
    Client client(server.port());
    const Client::SweepResult result = client.sweep(
        "ibs_mach", config_names, testWorkloads(), kInstr);
    ASSERT_TRUE(result.ok) << result.errorMessage;
    ASSERT_EQ(result.cells.size(), 6u);
    EXPECT_EQ(result.cellsExpected, 6u);
    EXPECT_FALSE(result.memoHit);

    // The reference: the same cells, straight through the library.
    const SuiteTraces direct(testSpecs(), kInstr);
    std::set<std::pair<size_t, size_t>> seen;
    for (const Json &cell : result.cells) {
        const size_t c = static_cast<size_t>(
            cell.at("config_index").asNumber());
        const size_t w = static_cast<size_t>(
            cell.at("workload_index").asNumber());
        ASSERT_LT(c, config_names.size());
        ASSERT_LT(w, direct.count());
        EXPECT_TRUE(seen.insert({c, w}).second)
            << "cell (" << c << ", " << w << ") arrived twice";
        EXPECT_EQ(cell.at("config").asString(), config_names[c]);
        EXPECT_EQ(cell.at("workload").asString(),
                  testWorkloads()[w]);

        const FetchStats expect =
            direct.runOne(w, *findConfigClass(config_names[c]));
        EXPECT_EQ(statU64(cell, "instructions"),
                  expect.instructions);
        EXPECT_EQ(statU64(cell, "cycles"), expect.cycles);
        EXPECT_EQ(statU64(cell, "stall_cycles_l1"),
                  expect.stallCyclesL1);
        EXPECT_EQ(statU64(cell, "stall_cycles_l2"),
                  expect.stallCyclesL2);
        EXPECT_EQ(statU64(cell, "l1_misses"), expect.l1Misses);
        EXPECT_EQ(statU64(cell, "l2_accesses"), expect.l2Accesses);
        EXPECT_EQ(statU64(cell, "l2_misses"), expect.l2Misses);
        EXPECT_EQ(statU64(cell, "l2_data_accesses"),
                  expect.l2DataAccesses);
        EXPECT_EQ(statU64(cell, "l2_data_misses"),
                  expect.l2DataMisses);
        EXPECT_EQ(statU64(cell, "prefetches_issued"),
                  expect.prefetchesIssued);
        EXPECT_EQ(statU64(cell, "prefetches_used"),
                  expect.prefetchesUsed);
        EXPECT_EQ(statU64(cell, "stream_buffer_hits"),
                  expect.streamBufferHits);
        EXPECT_EQ(statU64(cell, "bypass_hits"), expect.bypassHits);
    }
}

TEST(Serve, SecondIdenticalRequestHitsTheMemo)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());
    const Client::SweepResult cold = client.sweep(
        "ibs_mach", {"economy"}, testWorkloads(), kInstr);
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.memoHit);

    const Client::SweepResult warm = client.sweep(
        "ibs_mach", {"economy"}, testWorkloads(), kInstr);
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.memoHit);

    const TraceMemo::Stats memo = server.memo().stats();
    EXPECT_EQ(memo.misses, 1u);
    EXPECT_GE(memo.hits, 1u);
    EXPECT_EQ(memo.entries, 1u);

    // A different instruction budget is a different key.
    const Client::SweepResult other = client.sweep(
        "ibs_mach", {"economy"}, testWorkloads(), kInstr / 2);
    ASSERT_TRUE(other.ok);
    EXPECT_FALSE(other.memoHit);
}

TEST(Serve, UnknownNamesAreStructured400s)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());

    Client::SweepResult r = client.sweep(
        "no_such_suite", {"economy"}, {}, kInstr);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, 400);

    r = client.sweep("ibs_mach", {"no_such_config"}, {}, kInstr);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, 400);
    EXPECT_NE(r.errorMessage.find("no_such_config"),
              std::string::npos);

    r = client.sweep("ibs_mach", {"economy"}, {"no_such_workload"},
                     kInstr);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, 400);

    // Rejections never cost the connection.
    EXPECT_TRUE(client.ping());
    EXPECT_EQ(server.counters().protocolErrors, 3u);
}

TEST(Serve, BadJsonGetsAnErrorAndKeepsTheConnection)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());

    // Plain garbage, and a 100-KB frame of 100,000 array openers,
    // which would overflow an unbounded recursive parser's stack.
    for (const std::string &payload :
         {std::string("this is not json"), std::string(100000, '[')}) {
        const std::string frame = wireFrame(payload);
        ASSERT_TRUE(writeAll(client.fd(), frame.data(), frame.size()));

        Json response;
        ASSERT_TRUE(client.receive(response));
        EXPECT_EQ(response.at("type").asString(), "error");
        EXPECT_EQ(response.at("code").asNumber(), 400.0);

        // Framing stayed in sync: the next request still works.
        EXPECT_TRUE(client.ping());
    }
}

TEST(Serve, OversizedFrameClosesTheConnection)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());

    const uint32_t len = kMaxFrameBytes + 1;
    const unsigned char header[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len)};
    ASSERT_TRUE(writeAll(client.fd(), header, sizeof(header)));

    Json response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.at("type").asString(), "error");
    EXPECT_EQ(response.at("code").asNumber(), 400.0);
    EXPECT_FALSE(client.receive(response)); // Clean EOF.
}

TEST(Serve, TruncatedFrameClosesTheConnection)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());

    // Announce 100 bytes, deliver 10, half-close.
    const unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_TRUE(writeAll(client.fd(), header, sizeof(header)));
    ASSERT_TRUE(writeAll(client.fd(), "0123456789", 10));
    ::shutdown(client.fd(), SHUT_WR);

    Json response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.at("type").asString(), "error");
    EXPECT_FALSE(client.receive(response)); // Clean EOF.
    EXPECT_GE(server.counters().protocolErrors, 1u);
}

/** Payloads the frame tests send: one of each request and response
 *  shape, dumped compactly (so decoding re-dumps them unchanged). */
std::vector<std::string>
samplePayloads()
{
    return {
        Json::object().set("type", Json::string("ping")).dump(0),
        "{\"type\":\"sweep\",\"suite\":\"ibs_mach\",\"configs\":"
        "[\"economy\",\"high_performance\"],\"workloads\":"
        "[\"gs.mach\",\"nroff.mach\"],\"instructions\":20000,"
        "\"req_id\":\"r-1\"}",
        errorMessage(400, "unknown config \"bogus\"").dump(0),
        Json::object()
            .set("type", Json::string("cell"))
            .set("config", Json::number(3))
            .set("stats", Json::object()
                              .set("instructions", Json::number(20000))
                              .set("l1_misses", Json::number(1234)))
            .dump(0),
    };
}

/** What readFrame made of one byte stream. */
struct Decoded
{
    /** Each Ok frame's payload re-dumped; empty for a BadJson one. */
    std::vector<std::string> frames;
    FrameStatus end = FrameStatus::Ok; ///< The status that ended it.
};

/**
 * Write `bytes` into one end of a socketpair from a thread, in seeded
 * chunks of 1-7 bytes, then half-close; read frames from the other
 * end until readFrame returns a status after which the stream is out
 * of sync or over. The half-close bounds every case, whatever a
 * corrupted header announces.
 */
Decoded
decodeStream(const std::string &bytes, Rng &rng)
{
    std::vector<size_t> chunks;
    for (size_t at = 0; at < bytes.size(); at += chunks.back())
        chunks.push_back(std::min<size_t>(1 + rng.nextBounded(7),
                                          bytes.size() - at));
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        ADD_FAILURE() << "socketpair: " << std::strerror(errno);
        return {};
    }
    std::thread writer([&] {
        size_t at = 0;
        // A reader that stopped early closed its end: the write
        // fails (no SIGPIPE) and the writer stops.
        for (size_t n : chunks) {
            if (!writeAll(fds[1], bytes.data() + at, n))
                break;
            at += n;
        }
        ::shutdown(fds[1], SHUT_WR);
    });
    Decoded out;
    try {
        for (;;) {
            Json frame;
            std::string error;
            const FrameStatus status = readFrame(fds[0], frame, error);
            if (!recoverable(status)) {
                out.end = status;
                break;
            }
            out.frames.push_back(status == FrameStatus::Ok
                                     ? frame.dump(0)
                                     : std::string());
        }
    } catch (const std::exception &e) {
        ADD_FAILURE() << "readFrame threw: " << e.what();
    }
    ::close(fds[0]);
    writer.join();
    ::close(fds[1]);
    return out;
}

TEST(ReadFrame, ChunkedStreamsDecodeExactly)
{
    // Short reads split headers and payloads at every offset: 1-4
    // valid frames must come back exactly as sent, then Eof.
    const std::vector<std::string> payloads = samplePayloads();
    Rng rng(21);
    for (int i = 0; i < 300; ++i) {
        std::vector<std::string> sent;
        std::string bytes;
        for (uint64_t n = 1 + rng.nextBounded(4); n > 0; --n) {
            sent.push_back(payloads[rng.nextBounded(payloads.size())]);
            bytes += wireFrame(sent.back());
        }
        const Decoded got = decodeStream(bytes, rng);
        EXPECT_EQ(got.end, FrameStatus::Eof) << "case " << i;
        EXPECT_EQ(got.frames, sent) << "case " << i;
    }
}

TEST(ReadFrame, MutatedStreamsEndInAStructuredStatus)
{
    // Seeded byte flips (in a header or in a payload) and
    // truncations of 1-4 frame streams. Every frame before the
    // damaged one decodes as sent; after it readFrame may only return
    // Ok or BadJson frames, then Eof, Truncated or Oversized. Nothing
    // throws and nothing hangs.
    const std::vector<std::string> payloads = samplePayloads();
    Rng rng(7);
    int header_flips = 0, payload_flips = 0, truncations = 0;
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::string> sent;
        std::vector<size_t> starts; ///< Offset of each frame.
        std::string bytes;
        for (uint64_t n = 1 + rng.nextBounded(4); n > 0; --n) {
            sent.push_back(payloads[rng.nextBounded(payloads.size())]);
            starts.push_back(bytes.size());
            bytes += wireFrame(sent.back());
        }
        // The damaged frame f and the byte: a flipped header byte, a
        // flipped payload byte, or the cut point of a truncation
        // anywhere in the frame.
        const size_t f = rng.nextBounded(sent.size());
        const uint64_t kind = rng.nextBounded(3);
        const size_t at = starts[f] +
            (kind == 0   ? rng.nextBounded(4)
             : kind == 1 ? 4 + rng.nextBounded(sent[f].size())
                         : rng.nextBounded(4 + sent[f].size()));
        if (kind == 2) {
            bytes.resize(at);
            ++truncations;
        } else {
            // XOR with a nonzero mask: the byte always changes.
            bytes[at] = static_cast<char>(
                bytes[at] ^ static_cast<char>(1 + rng.nextBounded(255)));
            ++(kind == 0 ? header_flips : payload_flips);
        }

        const Decoded got = decodeStream(bytes, rng);
        const std::string label = "case " + std::to_string(i);
        EXPECT_TRUE(got.end == FrameStatus::Eof ||
                    got.end == FrameStatus::Truncated ||
                    got.end == FrameStatus::Oversized)
            << label << " ended with status "
            << static_cast<int>(got.end);
        ASSERT_GE(got.frames.size(), f) << label;
        for (size_t k = 0; k < f; ++k)
            EXPECT_EQ(got.frames[k], sent[k]) << label << " frame " << k;
        if (kind == 2) {
            // A cut loses frame f and everything after; only a cut at
            // its first byte leaves a clean frame boundary.
            EXPECT_EQ(got.frames.size(), f) << label;
            EXPECT_EQ(got.end, at == starts[f] ? FrameStatus::Eof
                                               : FrameStatus::Truncated)
                << label;
        }
        if (kind == 1) {
            // The framing survives a payload flip: every frame
            // arrives, the damaged one Ok or BadJson, then Eof.
            EXPECT_EQ(got.frames.size(), sent.size()) << label;
            EXPECT_EQ(got.end, FrameStatus::Eof) << label;
        }
    }
    EXPECT_GE(header_flips, 500);
    EXPECT_GE(payload_flips, 500);
    EXPECT_GE(truncations, 500);
}

TEST(Serve, OverBudgetRequestIsA429)
{
    ServerConfig config = testConfig();
    config.maxTotalInstructions = 1000; // Tiny per-request ceiling.
    Server server(config);
    server.start();
    Client client(server.port());

    const Client::SweepResult r = client.sweep(
        "ibs_mach", {"economy"}, testWorkloads(), kInstr);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, 429);
    EXPECT_NE(r.errorMessage.find("IBS_SERVE_MAX_INSTR"),
              std::string::npos);
    EXPECT_EQ(server.counters().rejected, 1u);
    EXPECT_TRUE(client.ping());
}

TEST(Serve, InflightLimitRejectsWithA429)
{
    ServerConfig config = testConfig();
    config.maxInflight = 0; // Degenerate limit: reject every sweep.
    Server server(config);
    server.start();
    Client client(server.port());

    const Client::SweepResult r = client.sweep(
        "ibs_mach", {"economy"}, testWorkloads(), kInstr);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, 429);
    EXPECT_NE(r.errorMessage.find("IBS_SERVE_MAX_INFLIGHT"),
              std::string::npos);
    EXPECT_EQ(server.counters().rejected, 1u);
    EXPECT_EQ(server.counters().sweeps, 0u);
}

TEST(Serve, ShutdownRequestDrainsAndStopsTheServer)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());
    // Real work first, so the drain has something behind it.
    ASSERT_TRUE(
        client.sweep("ibs_mach", {"economy"}, testWorkloads(),
                     kInstr)
            .ok);
    client.shutdown();
    EXPECT_TRUE(server.stopping());
    server.wait();
    const Server::Counters counters = server.counters();
    EXPECT_EQ(counters.sweeps, 1u);
    EXPECT_EQ(counters.cells, 2u);
}

TEST(Serve, StopWithAnIdleConnectionStillJoins)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());
    ASSERT_TRUE(client.ping());
    server.requestStop();
    server.wait(); // Must not hang on the idle open connection.
    EXPECT_TRUE(server.stopping());
}

TEST(Serve, ConcurrentClientsAllComplete)
{
    Server server(testConfig());
    server.start();
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int i = 0; i < 3; ++i) {
        clients.emplace_back([&server, &ok] {
            Client client(server.port());
            const Client::SweepResult r = client.sweep(
                "ibs_mach", {"economy", "high_performance"},
                testWorkloads(), kInstr);
            if (r.ok && r.cells.size() == 4)
                ok.fetch_add(1);
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), 3);
    // One materialization, shared by everyone.
    EXPECT_EQ(server.memo().stats().misses, 1u);
}

TEST(Serve, MetricsExpositionValidatesAndCountsSweeps)
{
    // The request histograms live in the process-global registry;
    // clear residue from earlier tests so counts are exact.
    obs::Registry::global().reset();

    Server server(testConfig());
    server.start();
    Client client(server.port());
    ASSERT_TRUE(
        client.sweep("ibs_mach", {"economy"}, testWorkloads(), kInstr)
            .ok);

    const std::string text = client.metricsText();
    std::string error;
    EXPECT_TRUE(obs::validatePromText(text, error)) << error;

    double value = 0;
    ASSERT_TRUE(obs::findPromValue(text, "ibs_serve_requests", value));
    EXPECT_GE(value, 2.0); // The sweep, then this scrape.
    ASSERT_TRUE(obs::findPromValue(text, "ibs_serve_sweeps", value));
    EXPECT_EQ(value, 1.0);
    ASSERT_TRUE(obs::findPromValue(text, "ibs_serve_cells", value));
    EXPECT_EQ(value, 2.0);
    ASSERT_TRUE(
        obs::findPromValue(text, "ibs_serve_inflight", value));
    EXPECT_EQ(value, 0.0);

    // The sweep landed exactly once in the latency histogram, and
    // its per-phase breakdown exists alongside it.
    obs::PromHistogram hist;
    ASSERT_TRUE(obs::parsePromHistogram(
        text, "ibs_serve_sweep_latency_us", hist));
    EXPECT_EQ(hist.count, 1u);
    ASSERT_TRUE(obs::parsePromHistogram(
        text, "ibs_serve_request_latency_us", hist));
    EXPECT_GE(hist.count, 1u);
    ASSERT_TRUE(obs::parsePromHistogram(
        text, "ibs_serve_request_cells", hist));
    EXPECT_EQ(hist.count, 1u);
    EXPECT_EQ(hist.sum, 2.0);
    EXPECT_TRUE(obs::parsePromHistogram(
        text, "ibs_serve_sweep_materialize_us", hist));
    EXPECT_TRUE(obs::parsePromHistogram(
        text, "ibs_serve_sweep_simulate_us", hist));
    EXPECT_EQ(hist.count, 2u); // One sample per cell.
}

TEST(Serve, ReqIdEchoesClientTokenOrAssignsServerId)
{
    Server server(testConfig());
    server.start();
    Client client(server.port());

    // A client-chosen id comes back verbatim.
    client.send(Json::object()
                    .set("type", Json::string("ping"))
                    .set("req_id", Json::string("my-ping-1")));
    Json response;
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.at("type").asString(), "pong");
    EXPECT_EQ(response.at("req_id").asString(), "my-ping-1");

    // Without one, the server assigns "s-<seq>".
    client.send(Json::object().set("type", Json::string("ping")));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.at("req_id").asString().substr(0, 2), "s-");

    // Every other single-frame reply echoes it as well.
    for (const char *type : {"stats", "metrics"}) {
        client.send(Json::object()
                        .set("type", Json::string(type))
                        .set("req_id", Json::string(type)));
        ASSERT_TRUE(client.receive(response));
        EXPECT_EQ(response.at("type").asString(), type);
        EXPECT_EQ(response.at("req_id").asString(), type);
    }

    // A sweep echoes the id on every frame: start, cells, done.
    Json configs = Json::array();
    configs.push(Json::string("economy"));
    Json workloads = Json::array();
    for (const std::string &name : testWorkloads())
        workloads.push(Json::string(name));
    client.send(Json::object()
                    .set("type", Json::string("sweep"))
                    .set("suite", Json::string("ibs_mach"))
                    .set("configs", std::move(configs))
                    .set("workloads", std::move(workloads))
                    .set("instructions", Json::number(kInstr))
                    .set("req_id", Json::string("sweep-42")));
    size_t frames = 0;
    for (;;) {
        ASSERT_TRUE(client.receive(response));
        ++frames;
        EXPECT_EQ(response.at("req_id").asString(), "sweep-42")
            << response.at("type").asString();
        if (response.at("type").asString() == "done")
            break;
        ASSERT_NE(response.at("type").asString(), "error");
    }
    EXPECT_EQ(frames, 4u); // start + 2 cells + done.

    // Structured rejections carry the id too: 400s for a bad sweep,
    // an unknown type and a typeless request, a 429 for a sweep over
    // the per-request instruction budget.
    const auto expect_error = [&](const Json &request, int code,
                                  const std::string &req_id) {
        client.send(request);
        ASSERT_TRUE(client.receive(response));
        EXPECT_EQ(response.at("type").asString(), "error");
        EXPECT_EQ(response.at("code").asNumber(), code);
        EXPECT_EQ(response.at("req_id").asString(), req_id);
    };
    expect_error(Json::object()
                     .set("type", Json::string("sweep"))
                     .set("suite", Json::string("no_such_suite"))
                     .set("req_id", Json::string("bad-1")),
                 400, "bad-1");
    expect_error(Json::object()
                     .set("type", Json::string("no_such_type"))
                     .set("req_id", Json::string("bad-2")),
                 400, "bad-2");
    expect_error(Json::object().set("req_id", Json::string("bad-3")),
                 400, "bad-3");
    Json one_config = Json::array();
    one_config.push(Json::string("economy"));
    expect_error(Json::object()
                     .set("type", Json::string("sweep"))
                     .set("suite", Json::string("ibs_mach"))
                     .set("configs", std::move(one_config))
                     .set("instructions",
                          Json::number(
                              testConfig().maxTotalInstructions + 1))
                     .set("req_id", Json::string("big-1")),
                 429, "big-1");
    EXPECT_EQ(server.counters().protocolErrors, 3u);
    EXPECT_EQ(server.counters().rejected, 1u);

    // The last reply of a connection, too.
    client.send(Json::object()
                    .set("type", Json::string("shutdown"))
                    .set("req_id", Json::string("bye")));
    ASSERT_TRUE(client.receive(response));
    EXPECT_EQ(response.at("type").asString(), "shutting_down");
    EXPECT_EQ(response.at("req_id").asString(), "bye");
}

TEST(Serve, ServerHistogramAgreesWithClientLatencies)
{
    obs::Registry::global().reset();

    Server server(testConfig());
    server.start();
    Client client(server.port());

    // The same requests timed on both sides of the wire: client
    // wall clocks here, the serve.sweep.latency_us histogram there.
    std::vector<double> latencies;
    for (int i = 0; i < 6; ++i) {
        WallTimer timer;
        ASSERT_TRUE(client
                        .sweep("ibs_mach", {"economy"},
                               testWorkloads(), kInstr)
                        .ok);
        latencies.push_back(timer.seconds());
    }
    std::sort(latencies.begin(), latencies.end());

    obs::PromHistogram hist;
    ASSERT_TRUE(obs::parsePromHistogram(
        client.metricsText(), "ibs_serve_sweep_latency_us", hist));
    ASSERT_EQ(hist.count, 6u);

    // Both sides at log2-bucket resolution, with the rule ibs_loadgen
    // --check applies: one bucket of slack (2x) absorbs the wire round
    // trip; more is a real divergence.
    for (double q : {0.50, 0.99}) {
        const double client_seconds = percentile(latencies, q);
        EXPECT_TRUE(latencyBucketsAgree(client_seconds, hist.quantile(q)))
            << "q=" << q << " client=" << client_seconds * 1e6
            << "us server<=" << hist.quantile(q) << "us";
    }
}

TEST(Serve, CatalogNamesResolveAndValidate)
{
    EXPECT_GE(configClasses().size(), 8u);
    for (const std::string &name : configClassNames())
        EXPECT_NE(findConfigClass(name), nullptr) << name;
    EXPECT_EQ(findConfigClass("bogus"), nullptr);
    for (const std::string &suite : suiteNames())
        EXPECT_FALSE(suiteByName(suite).empty()) << suite;
    EXPECT_TRUE(suiteByName("bogus").empty());
}

TEST(Serve, PortFromEnvAcceptsZeroTo65535AndWarnsOtherwise)
{
    // 0 is the documented ephemeral port; out-of-range and malformed
    // values warn and bind an ephemeral port instead.
    const struct
    {
        const char *value;
        uint16_t port;
        bool warns;
    } cases[] = {
        {"0", 0, false},
        {"8080", 8080, false},
        {"70000", 0, true},
        {"x", 0, true},
    };
    const obs::LogLevel level = obs::logLevel();
    obs::setLogLevel(obs::LogLevel::Warn);
    for (const auto &c : cases) {
        ::setenv("IBS_SERVE_PORT", c.value, 1);
        ::testing::internal::CaptureStderr();
        const uint16_t port = ServerConfig::fromEnv().port;
        const std::string err =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(port, c.port) << c.value;
        EXPECT_EQ(err.find("IBS_SERVE_PORT") != std::string::npos,
                  c.warns)
            << c.value << ": " << err;
    }
    ::unsetenv("IBS_SERVE_PORT");
    obs::setLogLevel(level);
}

TEST(TraceMemo, EvictsColdEntriesWhenOverBudget)
{
    const std::vector<WorkloadSpec> specs = testSpecs();
    auto build = [&](uint64_t instructions) {
        return [&specs, instructions] {
            return std::make_shared<const SuiteTraces>(specs,
                                                       instructions);
        };
    };
    // A suite retains almost nothing at build time; its
    // run-trace memos accrue as cells replay it (~5000/4 runs * 16 B
    // per workload here) and are charged by refresh(). The budget
    // fits one replayed entry, not two.
    TraceMemo memo(48 * 1024);
    auto a = memo.get("a", build(5000));
    const uint64_t built_bytes = memo.stats().bytes;
    runSuite(*a, economyBaseline());
    memo.refresh("a", *a);
    EXPECT_GT(memo.stats().bytes, built_bytes)
        << "replay grew the suite but refresh charged nothing";
    auto b = memo.get("b", build(5000));
    runSuite(*b, economyBaseline());
    memo.refresh("b", *b);
    const TraceMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, 48u * 1024);
    // The evicted suite is still alive through our reference.
    EXPECT_EQ(a->count(), specs.size());
    // "b" is the survivor: getting it again is a hit.
    bool hit = false;
    memo.get("b", build(5000), &hit);
    EXPECT_TRUE(hit);
    // Refreshing an evicted key must not resurrect or recount it.
    memo.refresh("a", *a);
    EXPECT_EQ(memo.stats().entries, 1u);
    EXPECT_EQ(memo.stats().bytes, stats.bytes);
}

TEST(TraceMemo, FailedBuildIsRethrownAndRetried)
{
    TraceMemo memo(1 << 20);
    int calls = 0;
    auto failing = [&calls]()
        -> std::shared_ptr<const SuiteTraces> {
        ++calls;
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(memo.get("k", failing), std::runtime_error);
    EXPECT_THROW(memo.get("k", failing), std::runtime_error);
    EXPECT_EQ(calls, 2); // The failure was not cached.
    EXPECT_EQ(memo.stats().entries, 0u);
}

} // namespace
