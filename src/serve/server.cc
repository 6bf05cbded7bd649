/**
 * @file
 * Server implementation.
 */

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/log.h"
#include "obs/prom.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace_sink.h"
#include "serve/catalog.h"
#include "sim/bench_report.h"
#include "sim/sweep.h"

namespace ibs::serve {

namespace {

/** Poll granularity: how quickly idle loops notice requestStop(). */
constexpr int kPollMillis = 100;

/** A validated sweep request. */
struct SweepRequest
{
    std::string suite;
    std::vector<std::string> configNames;
    std::vector<FetchConfig> configs;
    std::vector<WorkloadSpec> workloads;
    uint64_t instructions = 0;
};

/** Strings of a JSON array member; throws std::invalid_argument. */
std::vector<std::string>
stringList(const Json &request, const std::string &key)
{
    std::vector<std::string> out;
    const Json *list = request.find(key);
    if (!list)
        return out;
    if (!list->isArray())
        throw std::invalid_argument("\"" + key +
                                    "\" must be an array of strings");
    for (size_t i = 0; i < list->size(); ++i) {
        if (!list->at(i).isString())
            throw std::invalid_argument(
                "\"" + key + "\" must be an array of strings");
        out.push_back(list->at(i).asString());
    }
    return out;
}

/** Parse + validate; throws std::invalid_argument with a message
 *  that goes straight into the 400 response. */
SweepRequest
parseSweepRequest(const Json &request)
{
    SweepRequest out;
    const Json *suite = request.find("suite");
    if (!suite || !suite->isString())
        throw std::invalid_argument(
            "missing string \"suite\" (one of ibs_mach, ibs_ultrix, "
            "spec)");
    out.suite = suite->asString();
    std::vector<WorkloadSpec> all = suiteByName(out.suite);
    if (all.empty())
        throw std::invalid_argument("unknown suite \"" + out.suite +
                                    "\"");

    out.configNames = stringList(request, "configs");
    if (out.configNames.empty())
        throw std::invalid_argument(
            "\"configs\" must name at least one config class");
    for (const std::string &name : out.configNames) {
        const FetchConfig *config = findConfigClass(name);
        if (!config)
            throw std::invalid_argument("unknown config class \"" +
                                        name + "\"");
        out.configs.push_back(*config);
    }

    const std::vector<std::string> subset =
        stringList(request, "workloads");
    if (subset.empty()) {
        out.workloads = std::move(all);
    } else {
        for (const std::string &name : subset) {
            const auto it = std::find_if(
                all.begin(), all.end(),
                [&](const WorkloadSpec &w) { return w.name == name; });
            if (it == all.end())
                throw std::invalid_argument(
                    "unknown workload \"" + name + "\" in suite \"" +
                    out.suite + "\"");
            out.workloads.push_back(*it);
        }
    }

    const Json *instr = request.find("instructions");
    if (!instr || !instr->isNumber())
        throw std::invalid_argument(
            "missing numeric \"instructions\"");
    const double v = instr->asNumber();
    if (!(v >= 1) || v != static_cast<double>(
                              static_cast<uint64_t>(v)))
        throw std::invalid_argument(
            "\"instructions\" must be a positive integer");
    out.instructions = static_cast<uint64_t>(v);
    return out;
}

/** Memo key: suite, subset and length identify the traces exactly. */
std::string
memoKey(const SweepRequest &request)
{
    std::string key = request.suite;
    for (const WorkloadSpec &w : request.workloads) {
        key += '|';
        key += w.name;
    }
    key += '#';
    key += std::to_string(request.instructions);
    return key;
}

} // namespace

/**
 * Request-scoped telemetry, one instance per parsed request frame:
 * a stable (seq, req_id) identity, the connection the request is
 * answered on, the response byte count, and — on destruction, after
 * the response is on the wire — the latency histograms, the
 * access-log line, and the async span close. When IBS_OBS_TRACE is
 * set, construction opens a "req <id>" async span and a flow; step()
 * adds a flow step from whatever thread is advancing the request
 * (the handler after materialization, each pool thread per cell),
 * which is what stitches a request's work across threads in the
 * Perfetto view.
 */
struct RequestTelemetry
{
    uint64_t seq;   ///< Numeric async/flow id (unique per process).
    std::string id; ///< Echoed req_id (client's, or "s-<seq>").
    std::string kind = "invalid";
    int code = 0; ///< Error code of the response, 0 when none sent.
    uint64_t bytesOut = 0;
    uint64_t cells = 0;
    bool isSweep = false;
    WallTimer timer;
    obs::TraceEventSink *sink;
    int fd;                   ///< The connection's socket.
    std::mutex &writeMutex;   ///< Serializes the connection's frames.

    RequestTelemetry(uint64_t seq_no, std::string req_id, int conn_fd,
                     std::mutex &write_mutex)
        : seq(seq_no), id(std::move(req_id)),
          sink(obs::TraceEventSink::global()), fd(conn_fd),
          writeMutex(write_mutex)
    {
        if (sink) {
            const uint64_t now = sink->nowMicros();
            sink->asyncBegin(spanName(), "serve.req", seq, now);
            sink->flowStart(spanName(), "serve.req", seq, now);
        }
    }

    RequestTelemetry(const RequestTelemetry &) = delete;
    RequestTelemetry &operator=(const RequestTelemetry &) = delete;

    std::string spanName() const { return "req " + id; }

    /** Send one response frame; every response leaves through here.
     *  Stamps the req_id, keeps the frame whole against cells written
     *  from pool threads, counts its bytes. False if the peer is gone. */
    bool
    reply(Json message)
    {
        message.set("req_id", Json::string(id));
        std::lock_guard<std::mutex> lock(writeMutex);
        return writeFrame(fd, message, &bytesOut);
    }

    /** Flow step from the calling thread (binds to its current
     *  slice, drawing the cross-thread arrow). */
    void
    step()
    {
        if (sink)
            sink->flowStep(spanName(), "serve.req", seq,
                           sink->nowMicros());
    }

    ~RequestTelemetry()
    {
        const uint64_t us =
            static_cast<uint64_t>(timer.seconds() * 1e6);
        obs::Registry &registry = obs::Registry::global();
        if (registry.enabled()) {
            registry.observe("serve.request.latency_us", us);
            registry.observe("serve.request.bytes_out", bytesOut);
            if (isSweep) {
                registry.observe("serve.request.cells", cells);
                // Sweep-only latency: the all-request histogram
                // mixes in microsecond pings, so percentile
                // cross-checks against sweep clients read this one.
                registry.observe("serve.sweep.latency_us", us);
            }
        }
        if (sink) {
            const uint64_t now = sink->nowMicros();
            sink->flowEnd(spanName(), "serve.req", seq, now);
            sink->asyncEnd(spanName(), "serve.req", seq, now);
        }
        obs::log(obs::LogLevel::Info,
                 "serve: req id=%s type=%s code=%d latency_us=%llu "
                 "bytes_out=%llu cells=%llu",
                 id.c_str(), kind.c_str(), code,
                 static_cast<unsigned long long>(us),
                 static_cast<unsigned long long>(bytesOut),
                 static_cast<unsigned long long>(cells));
    }
};

ServerConfig
ServerConfig::fromEnv()
{
    ServerConfig config;
    config.port = static_cast<uint16_t>(
        parseEnvCount("IBS_SERVE_PORT", 0, 0, 65535));
    config.maxInflight = static_cast<unsigned>(parseEnvCount(
        "IBS_SERVE_MAX_INFLIGHT", config.maxInflight));
    config.memoBytes =
        parseEnvCount("IBS_SERVE_MEMO_BYTES", config.memoBytes);
    config.maxTotalInstructions = parseEnvCount(
        "IBS_SERVE_MAX_INSTR", config.maxTotalInstructions);
    return config;
}

Server::Server(ServerConfig config)
    : config_(config), memo_(config.memoBytes)
{
}

Server::Server() : Server(ServerConfig::fromEnv()) {}

Server::~Server()
{
    requestStop();
    wait();
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
Server::start()
{
    // An unobservable server cannot be operated: the registry backs
    // the "metrics"/"stats" surfaces regardless of IBS_OBS.
    obs::Registry::global().setEnabled(true);
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw std::runtime_error(
            "serve: cannot bind 127.0.0.1:" +
            std::to_string(config_.port));
    if (::listen(listenFd_, 64) != 0)
        throw std::runtime_error("serve: listen() failed");
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    obs::log(obs::LogLevel::Info,
             "serve: listening on 127.0.0.1:%u (max_inflight=%u, "
             "memo=%llu bytes)",
             unsigned{port_}, config_.maxInflight,
             static_cast<unsigned long long>(config_.memoBytes));
}

void
Server::requestStop()
{
    stop_.store(true, std::memory_order_relaxed);
}

void
Server::wait()
{
    std::lock_guard<std::mutex> joined(joinMutex_);
    if (joined_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    // The accept loop has exited, so handlers_ can only shrink in
    // spirit (all are told to stop); join whatever was launched.
    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(handlersMutex_);
        handlers.swap(handlers_);
    }
    for (std::thread &t : handlers)
        t.join();
    joined_ = true;
}

void
Server::acceptLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMillis);
        if (ready <= 0)
            continue; // Timeout or EINTR: re-check stop_.
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        // Frames are small and latency-sensitive; Nagle + delayed
        // ACK would add ~40 ms to every warm response.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        connections_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(handlersMutex_);
        handlers_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    std::mutex write_mutex; // Serializes frames of this connection.
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kPollMillis);
        if (ready <= 0)
            continue;
        Json request;
        std::string error;
        const FrameStatus status = readFrame(fd, request, error);
        if (status == FrameStatus::Eof)
            break;
        if (status != FrameStatus::Ok) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(write_mutex);
            writeFrame(fd, errorMessage(400, error));
            if (!recoverable(status))
                break; // The byte stream cannot be resynced.
            continue;
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (!dispatch(fd, request, write_mutex))
            break;
    }
    ::close(fd);
}

bool
Server::replyError(RequestTelemetry &telemetry, int code,
                   const std::string &message)
{
    telemetry.code = code;
    if (code == 400)
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
    else if (code == 429)
        rejected_.fetch_add(1, std::memory_order_relaxed);
    return telemetry.reply(errorMessage(code, message));
}

bool
Server::dispatch(int fd, const Json &request, std::mutex &write_mutex)
{
    const uint64_t seq =
        reqSeq_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::string req_id = "s-" + std::to_string(seq);
    if (request.isObject()) {
        const Json *id = request.find("req_id");
        if (id && id->isString() && !id->asString().empty())
            req_id = id->asString();
    }
    RequestTelemetry telemetry(seq, std::move(req_id), fd, write_mutex);

    const Json *type =
        request.isObject() ? request.find("type") : nullptr;
    if (!type || !type->isString())
        return replyError(telemetry, 400,
                          "request needs a string \"type\"");
    const std::string &kind = type->asString();
    telemetry.kind = kind;
    if (kind == "ping")
        return telemetry.reply(
            Json::object().set("type", Json::string("pong")));
    if (kind == "stats")
        return telemetry.reply(statsMessage());
    if (kind == "metrics")
        return telemetry.reply(metricsMessage());
    if (kind == "shutdown") {
        // Stop first: once the client sees the ack, stopping() is
        // already true.
        requestStop();
        telemetry.reply(
            Json::object().set("type", Json::string("shutting_down")));
        return false;
    }
    if (kind == "sweep") {
        handleSweep(request, telemetry);
        return true;
    }
    return replyError(telemetry, 400,
                      "unknown request type \"" + kind + "\"");
}

void
Server::handleSweep(const Json &request, RequestTelemetry &telemetry)
{
    SweepRequest sweep;
    try {
        sweep = parseSweepRequest(request);
    } catch (const std::invalid_argument &e) {
        replyError(telemetry, 400, e.what());
        return;
    }

    const uint64_t cells =
        sweep.configs.size() * sweep.workloads.size();
    const uint64_t total_instructions = sweep.instructions * cells;
    if (total_instructions / cells != sweep.instructions ||
        total_instructions > config_.maxTotalInstructions) {
        replyError(telemetry, 429,
                   "request budget of " + std::to_string(cells) +
                       " cells x " +
                       std::to_string(sweep.instructions) +
                       " instructions exceeds the per-request limit "
                       "of " +
                       std::to_string(config_.maxTotalInstructions) +
                       " (IBS_SERVE_MAX_INSTR)");
        return;
    }

    // Admission: never execute more than maxInflight sweeps at once.
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        config_.maxInflight) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        replyError(telemetry, 429,
                   "server is at its in-flight request limit "
                   "(IBS_SERVE_MAX_INFLIGHT); retry later");
        return;
    }
    struct InflightGuard
    {
        std::atomic<unsigned> &count;
        ~InflightGuard()
        {
            count.fetch_sub(1, std::memory_order_acq_rel);
        }
    } inflight_guard{inflight_};

    sweeps_.fetch_add(1, std::memory_order_relaxed);
    telemetry.isSweep = true;
    telemetry.cells = cells;
    obs::Registry &registry = obs::Registry::global();
    WallTimer request_timer;
    obs::ScopedTimer span("serve sweep " + memoKey(sweep), "serve");

    bool memo_hit = false;
    std::shared_ptr<const SuiteTraces> suite;
    WallTimer materialize_timer;
    try {
        suite = memo_.get(
            memoKey(sweep),
            [&] {
                return std::make_shared<const SuiteTraces>(
                    sweep.workloads, sweep.instructions);
            },
            &memo_hit);
    } catch (const std::exception &e) {
        replyError(telemetry, 500,
                   std::string("trace materialization failed: ") +
                       e.what());
        return;
    }
    if (registry.enabled())
        registry.observe(
            "serve.sweep.materialize_us",
            static_cast<uint64_t>(materialize_timer.seconds() *
                                  1e6));
    telemetry.step(); // Flow: handler thread, traces are warm.

    if (!telemetry.reply(
            Json::object()
                .set("type", Json::string("start"))
                .set("protocol", Json::number(uint64_t{kProtocolVersion}))
                .set("cells", Json::number(cells))
                .set("memo_hit", Json::boolean(memo_hit))))
        return;

    // runSweep (sim/sweep.h) schedules the grid exactly as the
    // benches do, collapse plan included; its sink streams each cell
    // from the pool thread that finished it. A failed socket write
    // aborts the sweep through the pool's exception drain.
    try {
        runSweep(
            *suite, sweep.configs, 0,
            [&](size_t c, size_t w, const FetchStats &stats,
                const CellTiming &timing) {
                telemetry.step(); // Flow: this cell's pool thread.
                WallTimer serialize_timer;
                if (!telemetry.reply(
                        Json::object()
                            .set("type", Json::string("cell"))
                            .set("config",
                                 Json::string(sweep.configNames[c]))
                            .set("config_index", Json::number(c))
                            .set("workload",
                                 Json::string(sweep.workloads[w].name))
                            .set("workload_index", Json::number(w))
                            .set("stats", toJson(stats))
                            .set("timing",
                                 timingJson(timing.wallSeconds,
                                            timing.instructions))))
                    throw std::runtime_error(
                        "client connection lost mid-sweep");
                if (registry.enabled()) {
                    registry.observe(
                        "serve.sweep.simulate_us",
                        static_cast<uint64_t>(timing.wallSeconds *
                                              1e6));
                    registry.observe(
                        "serve.sweep.serialize_us",
                        static_cast<uint64_t>(
                            serialize_timer.seconds() * 1e6));
                }
                cellsDone_.fetch_add(1, std::memory_order_relaxed);
            });
    } catch (const std::exception &e) {
        obs::log(obs::LogLevel::Warn, "serve: sweep aborted: %s",
                 e.what());
        return; // Writing anything further would interleave badly.
    }

    // The sweep may have grown the suite's run-trace memos (new line
    // sizes); re-measure so the LRU budget charges what is actually
    // retained.
    memo_.refresh(memoKey(sweep), *suite);

    telemetry.reply(Json::object()
                        .set("type", Json::string("done"))
                        .set("cells", Json::number(cells))
                        .set("memo_hit", Json::boolean(memo_hit))
                        .set("wall_seconds",
                             Json::number(request_timer.seconds())));
}

Json
Server::statsMessage()
{
    const Counters c = counters();
    const TraceMemo::Stats m = memo_.stats();
    Json memo = Json::object()
                    .set("hits", Json::number(m.hits))
                    .set("misses", Json::number(m.misses))
                    .set("evictions", Json::number(m.evictions))
                    .set("bytes", Json::number(m.bytes))
                    .set("budget_bytes",
                         Json::number(memo_.budgetBytes()))
                    .set("entries", Json::number(m.entries));
    Json counters_json =
        Json::object()
            .set("connections", Json::number(c.connections))
            .set("requests", Json::number(c.requests))
            .set("sweeps", Json::number(c.sweeps))
            .set("cells", Json::number(c.cells))
            .set("rejected", Json::number(c.rejected))
            .set("protocol_errors", Json::number(c.protocolErrors))
            .set("inflight",
                 Json::number(uint64_t{inflight_.load(
                     std::memory_order_relaxed)}));
    Json message = Json::object()
                       .set("type", Json::string("stats"))
                       .set("uptime_wall_seconds",
                            Json::number(uptime_.seconds()))
                       .set("max_inflight",
                            Json::number(
                                uint64_t{config_.maxInflight}))
                       .set("counters", std::move(counters_json))
                       .set("memo", std::move(memo));
    // The obs registry doubles as the server's /metrics surface.
    if (obs::Registry::global().enabled())
        message.set("registry",
                    obs::Registry::global().snapshotJson());
    return message;
}

Json
Server::metricsMessage()
{
    std::string text =
        obs::renderPrometheus(obs::Registry::global());
    // The server's lifetime counters live in atomics, not the
    // registry (they predate it and must count even when telemetry
    // publishing is off); append them as their own families. Names
    // are disjoint from every registry-derived ibs_serve_* family.
    const Counters c = counters();
    std::ostringstream extra;
    const auto family = [&extra](const char *name, const char *type,
                                 uint64_t value) {
        extra << "# TYPE " << name << ' ' << type << '\n'
              << name << ' ' << value << '\n';
    };
    family("ibs_serve_connections", "counter", c.connections);
    family("ibs_serve_requests", "counter", c.requests);
    family("ibs_serve_sweeps", "counter", c.sweeps);
    family("ibs_serve_cells", "counter", c.cells);
    family("ibs_serve_rejected", "counter", c.rejected);
    family("ibs_serve_protocol_errors", "counter",
           c.protocolErrors);
    family("ibs_serve_inflight", "gauge",
           inflight_.load(std::memory_order_relaxed));
    family("ibs_serve_max_inflight", "gauge",
           config_.maxInflight);
    extra << "# TYPE ibs_serve_uptime_seconds gauge\n"
          << "ibs_serve_uptime_seconds " << uptime_.seconds()
          << '\n';
    text += extra.str();
    return Json::object()
        .set("type", Json::string("metrics"))
        .set("content_type",
             Json::string(
                 "text/plain; version=0.0.4; charset=utf-8"))
        .set("text", Json::string(text));
}

Server::Counters
Server::counters() const
{
    Counters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.requests = requests_.load(std::memory_order_relaxed);
    c.sweeps = sweeps_.load(std::memory_order_relaxed);
    c.cells = cellsDone_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    c.protocolErrors =
        protocolErrors_.load(std::memory_order_relaxed);
    return c;
}

} // namespace ibs::serve
