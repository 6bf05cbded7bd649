/**
 * @file
 * Sweep-as-a-service: a long-running TCP server answering simulation
 * sweep requests.
 *
 * The bench binaries answer "which fetch mechanism wins under code
 * bloat" as one-shot batch sweeps; this server keeps the simulator
 * resident so many overlapping clients share its warm state. One
 * accept loop hands each connection to a handler thread; a request
 * names a (config-class grid × workload subset × instruction budget)
 * cell space, which the handler runs with one runSweep call
 * (sim/sweep.h) — the benches' scheduler, one SuiteTraces::runOne
 * task per cell, on the process-wide sim/parallel ThreadPool every
 * connection shares — whose per-cell sink streams each cell's
 * schema-v2 stats frame back
 * the moment the cell finishes. Materialized traces live in a
 * byte-budgeted LRU (serve/memo.h), so a repeated request pays only
 * replay.
 *
 * Telemetry: start() enables the process-wide obs::Registry (an
 * unobservable server cannot be operated), and every parsed request
 * is wrapped in request-scoped telemetry — a req_id (client-supplied
 * or server-assigned, see serve/protocol.h), an access-log line at
 * Info level, latency/size histograms (serve.request.latency_us,
 * serve.request.bytes_out, serve.request.cells, and the per-phase
 * serve.sweep.materialize_us / simulate_us / serialize_us), and —
 * when IBS_OBS_TRACE is set — one async span per request with flow
 * events stepping from the handler through materialization into
 * each cell on the pool threads. Like any runSweep call, a sweep
 * also emits one "cell" trace span per cell and reports progress
 * under IBS_PROGRESS (obs/progress.h). The
 * "metrics" request exposes the whole registry in Prometheus text
 * exposition format.
 *
 * Admission control keeps the process answerable under overload:
 * at most `maxInflight` sweep requests execute at once and a request
 * may not exceed `maxTotalInstructions` simulated instructions
 * (cells × per-workload length); both reject with a structured
 * 429-style error frame instead of queueing unboundedly. Stop is
 * graceful by construction: requestStop() stops the accept loop and
 * every handler finishes its in-flight request — never leaving a
 * partial frame on the wire — before wait() returns.
 *
 * Environment (ServerConfig::fromEnv): IBS_SERVE_PORT,
 * IBS_SERVE_MAX_INFLIGHT, IBS_SERVE_MEMO_BYTES, IBS_SERVE_MAX_INSTR.
 */

#ifndef IBS_SERVE_SERVER_H
#define IBS_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/memo.h"
#include "serve/protocol.h"
#include "stats/report.h"

namespace ibs::serve {

/** Per-request telemetry scope (defined in server.cc). */
struct RequestTelemetry;

/** Server tunables; defaults are safe for tests and local use.
 *  Sweeps run on sweepThreads() workers (IBS_THREADS), like any. */
struct ServerConfig
{
    uint16_t port = 0;          ///< 0 binds an ephemeral port.
    unsigned maxInflight = 4;   ///< Concurrent sweep requests.
    uint64_t memoBytes = 512ull << 20; ///< Trace-memo budget.
    /** Per-request ceiling on cells × instructions-per-workload. */
    uint64_t maxTotalInstructions = 2'000'000'000;

    /** Defaults overlaid with the IBS_SERVE_* environment. */
    static ServerConfig fromEnv();
};

/** Loopback TCP server owning an accept loop + handler threads. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    Server();

    /** Stops and drains if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind 127.0.0.1, listen, launch the accept loop. Throws
     *  std::runtime_error when the socket cannot be set up. */
    void start();

    /** Bound port (valid after start(); resolves port 0 binds). */
    uint16_t port() const { return port_; }

    /** Ask the accept loop and all handlers to finish their current
     *  request and exit. Safe to call repeatedly, from any thread. */
    void requestStop();

    /** True once requestStop() happened (a shutdown request does). */
    bool stopping() const
    {
        return stop_.load(std::memory_order_relaxed);
    }

    /** Join the accept loop and every handler; in-flight requests
     *  complete first. Idempotent. */
    void wait();

    /** Lifetime counters (also served by the "stats" request). */
    struct Counters
    {
        uint64_t connections = 0;
        uint64_t requests = 0;
        uint64_t sweeps = 0;
        uint64_t cells = 0;
        uint64_t rejected = 0;       ///< 429 admission rejections.
        uint64_t protocolErrors = 0; ///< 400s + framing failures.
    };

    Counters counters() const;

    TraceMemo &memo() { return memo_; }

    const ServerConfig &config() const { return config_; }

  private:
    void acceptLoop();
    void handleConnection(int fd);
    /** Returns false when the connection must close. */
    bool dispatch(int fd, const Json &request,
                  std::mutex &write_mutex);
    void handleSweep(const Json &request, RequestTelemetry &telemetry);
    /** A structured error response: records `code` on the request,
     *  counts a 400 as a protocol error and a 429 as a rejection.
     *  Returns false when the peer is gone. */
    bool replyError(RequestTelemetry &telemetry, int code,
                    const std::string &message);
    Json statsMessage();
    /** The "metrics" response: Prometheus exposition text of the obs
     *  registry plus the server's own lifetime counters. */
    Json metricsMessage();

    ServerConfig config_;
    TraceMemo memo_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> inflight_{0};
    std::thread acceptThread_;
    std::mutex handlersMutex_;
    std::vector<std::thread> handlers_;
    bool joined_ = false;
    std::mutex joinMutex_;
    WallTimer uptime_;

    std::atomic<uint64_t> reqSeq_{0}; ///< Request-id sequence.
    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> sweeps_{0};
    std::atomic<uint64_t> cellsDone_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> protocolErrors_{0};
};

} // namespace ibs::serve

#endif // IBS_SERVE_SERVER_H
