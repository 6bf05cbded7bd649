/**
 * @file
 * ibs_loadgen: load-generator client for ibs_serve.
 *
 * Opens N concurrent connections to a running server and drives each
 * with a stream of sweep requests, then prints aggregate throughput
 * and latency percentiles. This is the command-line face of
 * serve::runLoad (serve/client.h).
 *
 * Usage:
 *   ibs_loadgen --port P [--connections N] [--requests-per-conn R]
 *               [--suite ibs_mach] [--configs a,b,c]
 *               [--workloads x,y] [--instructions K]
 *               [--check] [--shutdown]
 *
 * Every connection issues the same request R times (after the first
 * completion the server's memo is warm, so the mix measures warm
 * latency with one cold outlier per distinct key). --shutdown sends a
 * shutdown request after the load completes.
 *
 * The port must lie in 1-65535 and N in 1-1024 (each connection is a
 * thread and a socket); R and K are positive. Any other value prints
 * the usage line and exits 2.
 *
 * After the run the server's own sweep-latency histogram
 * (ibs_serve_sweep_latency_us from the `metrics` request) is printed
 * next to the client-side percentiles. Both sides are compared at
 * log2-bucket resolution (serve::latencyBucketsAgree) — the
 * client's exact percentile is bucketized with
 * obs::log2BucketUpperEdge — so two views of the same distribution
 * land on the same edge instead of flaking at power-of-two
 * boundaries. Under --check, a divergence of more than one bucket
 * (i.e. more than 2x) at p50 or p99 is a hard failure with a
 * message naming both sides. --check is meaningful with
 * --connections 1: with concurrent clients on a busy machine, time
 * a request spends queued in the socket buffer before the server
 * reads the frame is visible only to the client clock, so the two
 * views legitimately differ.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/prom.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "sim/runner.h"

namespace {

using namespace ibs;

/** Most connections one run may open: each costs a client thread
 *  and a socket (serve::runLoad). */
constexpr uint64_t kMaxConnections = 1024;

struct Options
{
    uint16_t port = 0;
    unsigned connections = 2;
    unsigned requestsPerConn = 4;
    std::string suite = "ibs_mach";
    std::vector<std::string> configs = {"economy",
                                        "high_performance"};
    std::vector<std::string> workloads; ///< Empty = full suite.
    uint64_t instructions = 200000;
    bool shutdown = false;
    bool check = false; ///< Fail on client/server p50/p99 divergence.
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size()
                                                      : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --port P [--connections N] "
        "[--requests-per-conn R] [--suite S] [--configs a,b] "
        "[--workloads x,y] [--instructions K] [--check] "
        "[--shutdown]\n",
        argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto count = [&](uint64_t min, uint64_t max) {
            const std::optional<uint64_t> v =
                parseCount(value().c_str(), min, max);
            if (!v)
                usage(argv[0]);
            return *v;
        };
        if (arg == "--port")
            opt.port = static_cast<uint16_t>(count(1, 65535));
        else if (arg == "--connections")
            opt.connections =
                static_cast<unsigned>(count(1, kMaxConnections));
        else if (arg == "--requests-per-conn")
            opt.requestsPerConn = static_cast<unsigned>(
                count(1, std::numeric_limits<unsigned>::max()));
        else if (arg == "--suite")
            opt.suite = value();
        else if (arg == "--configs")
            opt.configs = splitCommas(value());
        else if (arg == "--workloads")
            opt.workloads = splitCommas(value());
        else if (arg == "--instructions")
            opt.instructions = count(1, UINT64_MAX);
        else if (arg == "--shutdown")
            opt.shutdown = true;
        else if (arg == "--check")
            opt.check = true;
        else
            usage(argv[0]);
    }
    if (opt.port == 0)
        usage(argv[0]);
    return opt;
}

/** Print one client-vs-server percentile line; false on divergence. */
bool
comparePercentile(const char *label, double client_seconds,
                  double server_edge_us)
{
    const uint64_t client_us =
        static_cast<uint64_t>(client_seconds * 1e6);
    const bool agree =
        serve::latencyBucketsAgree(client_seconds, server_edge_us);
    std::printf("%s client=%lluus (bucket<=%llu) server_bucket<=%.0f "
                "%s\n",
                label, static_cast<unsigned long long>(client_us),
                static_cast<unsigned long long>(
                    obs::log2BucketUpperEdge(client_us)),
                server_edge_us, agree ? "agree" : "DIVERGE");
    return agree;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const Options opt = parseArgs(argc, argv);

    const serve::LoadResult load = serve::runLoad(
        opt.port, opt.connections, opt.requestsPerConn, opt.suite,
        opt.configs, opt.workloads, opt.instructions);
    for (const std::string &error : load.errors)
        std::fprintf(stderr, "loadgen: %s\n", error.c_str());
    std::printf("connections=%u requests=%llu rejected=%llu "
                "failed=%llu cells=%llu\n",
                opt.connections,
                static_cast<unsigned long long>(load.completed),
                static_cast<unsigned long long>(load.rejected),
                static_cast<unsigned long long>(load.failed),
                static_cast<unsigned long long>(load.cells));
    std::printf("wall_seconds=%.3f requests_per_second=%.2f "
                "p50_seconds=%.4f p99_seconds=%.4f\n",
                load.wallSeconds,
                load.wallSeconds > 0
                    ? static_cast<double>(load.completed) /
                          load.wallSeconds
                    : 0,
                load.p50, load.p99);

    // Server-side view of the same requests: the sweep-latency
    // histogram from the metrics endpoint, printed next to the
    // client percentiles (and gated under --check).
    bool check_ok = true;
    if (load.completed > 0) {
        try {
            serve::Client client(opt.port);
            const std::string text = client.metricsText();
            obs::PromHistogram latency;
            if (obs::parsePromHistogram(
                    text, "ibs_serve_sweep_latency_us", latency) &&
                latency.count > 0) {
                const bool ok50 = comparePercentile(
                    "p50:", load.p50, latency.quantile(0.50));
                const bool ok99 = comparePercentile(
                    "p99:", load.p99, latency.quantile(0.99));
                check_ok = ok50 && ok99;
                if (!check_ok && opt.check)
                    std::fprintf(
                        stderr,
                        "loadgen: server-side sweep latency "
                        "percentiles diverge from client-side by "
                        "more than 2x (see the p50:/p99: lines "
                        "above); the server histogram and the "
                        "client clock disagree about the same "
                        "requests\n");
            } else {
                check_ok = false;
                if (opt.check)
                    std::fprintf(
                        stderr,
                        "loadgen: server metrics carry no "
                        "ibs_serve_sweep_latency_us histogram — "
                        "cannot cross-check percentiles\n");
            }
        } catch (const std::exception &e) {
            check_ok = false;
            if (opt.check)
                std::fprintf(stderr,
                             "loadgen: metrics scrape failed: %s\n",
                             e.what());
        }
    }

    if (opt.shutdown) {
        try {
            serve::Client client(opt.port);
            client.shutdown();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "loadgen: shutdown: %s\n",
                         e.what());
        }
    }
    if (load.failed != 0)
        return 1;
    return opt.check && !check_ok ? 1 : 0;
}
