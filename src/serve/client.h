/**
 * @file
 * Client side of the sweep-server protocol.
 *
 * A thin blocking wrapper over one loopback TCP connection speaking
 * serve/protocol.h frames. The load generator, perfbench's client and
 * the tests all drive the server through this class so there is
 * exactly one client-side implementation of the wire format.
 *
 * Transport failures (connect refused, peer vanished mid-frame)
 * throw std::runtime_error; structured server errors (400/429/500
 * frames) are returned as data so callers can assert on them.
 * runLoad is ibs_loadgen's load loop; ibs_stat and ibs_loadgen
 * --check read the server's telemetry through stats().
 */

#ifndef IBS_SERVE_CLIENT_H
#define IBS_SERVE_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace ibs::serve {

/** One connection to a sweep server. */
class Client
{
  public:
    Client() = default;

    /** Connects immediately; throws std::runtime_error on failure. */
    explicit Client(uint16_t port);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to 127.0.0.1:port. Throws on failure. */
    void connect(uint16_t port);

    void close();

    bool connected() const { return fd_ >= 0; }

    int fd() const { return fd_; }

    /** Send one frame; throws std::runtime_error when the peer is
     *  gone. */
    void send(const Json &message);

    /**
     * Receive one frame. Throws on transport failure (truncated
     * stream); returns false on clean EOF. A frame the server could
     * not parse never happens in this direction, so BadJson also
     * throws.
     */
    bool receive(Json &out);

    /** {"type":"ping"} round trip; false if the response is off. */
    bool ping();

    /** The server's "stats" frame, its one telemetry surface
     *  (serve/protocol.h); obs::histogramsFromJson decodes its
     *  "histograms" member. Throws on transport failure or a
     *  non-stats response. */
    Json stats();

    /** Ask the server to stop; returns once it acknowledges. */
    void shutdown();

    /** Outcome of one sweep request. */
    struct SweepResult
    {
        bool ok = false;        ///< "done" frame arrived.
        int errorCode = 0;      ///< 400/429/500 when rejected.
        std::string errorMessage;
        bool memoHit = false;   ///< Server had the traces warm.
        uint64_t cellsExpected = 0;
        double wallSeconds = 0; ///< Server-side request wall time.
        std::vector<Json> cells; ///< Every "cell" frame, in arrival
                                 ///< order.
    };

    /**
     * Run one sweep request to completion, collecting every streamed
     * cell frame. An empty `workloads` means the suite's full set.
     * A non-empty `req_id` rides along for server-side correlation
     * (trace spans); see serve/protocol.h. Structured rejections
     * land in the result; transport failures throw.
     */
    SweepResult sweep(const std::string &suite,
                      const std::vector<std::string> &configs,
                      const std::vector<std::string> &workloads,
                      uint64_t instructions,
                      const std::string &req_id = std::string());

  private:
    int fd_ = -1;
};

/** Outcome of one runLoad. */
struct LoadResult
{
    uint64_t completed = 0; ///< Requests answered with "done".
    uint64_t rejected = 0;  ///< Requests answered with a 429.
    uint64_t failed = 0;    ///< Other answers and transport failures.
    uint64_t cells = 0;     ///< Cell frames of completed requests.
    double wallSeconds = 0;
    double p50 = 0, p99 = 0; ///< Completed-request latency, seconds.
    std::vector<std::string> errors; ///< One line per failure.
};

/** Closed-loop load: `connections` threads each send the same sweep
 *  request (arguments as Client::sweep) `requests` times over one
 *  connection. Failures are counted, not thrown; a transport failure
 *  ends its connection's loop. */
LoadResult runLoad(uint16_t port, unsigned connections,
                   unsigned requests, const std::string &suite,
                   const std::vector<std::string> &configs,
                   const std::vector<std::string> &workloads,
                   uint64_t instructions);

/** Nearest-rank percentile `p` of an ascending sample: element
 *  ceil(p * n), the rank HistogramSnapshot::quantile takes (0 if
 *  empty). */
double percentile(const std::vector<double> &sorted, double p);

/** True when a client latency's log2-bucket edge and the server
 *  histogram's quantile edge (HistogramSnapshot::quantile) are at most
 *  one bucket (2x) apart; edges, not raw values, so power-of-two
 *  boundaries never flake. */
bool latencyBucketsAgree(double client_seconds, uint64_t server_edge_us);

} // namespace ibs::serve

#endif // IBS_SERVE_CLIENT_H
