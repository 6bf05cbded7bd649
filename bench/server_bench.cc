/**
 * @file
 * server_bench: throughput and latency of the sweep server.
 *
 * Starts an in-process serve::Server on an ephemeral loopback port
 * and measures the full client→wire→shard→stream round trip:
 *
 *   1. cold vs warm: the same request twice on one connection — the
 *      first materializes the traces (memo miss), the second replays
 *      them (memo hit) and must be faster;
 *   2. cross-check: after a sequential warm-probe phase, the
 *      server's own sweep-latency histogram (the `metrics` request)
 *      must agree with the client-side latencies of the same
 *      requests to within one log2 bucket (2x) at p50 and p99 — a
 *      hard failure otherwise, since both sides timed the same
 *      work. The check runs *before* the concurrent load because a
 *      request queued in the socket buffer behind a busy core is a
 *      delay the client clock sees but the server timer cannot;
 *      sequential requests have no such queue;
 *   3. throughput: for each concurrency level, N connections each
 *      send R identical warm requests (serve::runLoad, the loop
 *      ibs_loadgen drives); requests/s and p50/p99 latency come from
 *      the per-request wall times. Any request that fails — an error
 *      answer other than a 429, or a transport failure — fails the
 *      bench.
 *
 * Results land in BENCH_server.json (schema v2): one cell per
 * latency probe and one per concurrency level, so CI can diff
 * requests/s and tail latency across commits. IBS_BENCH_INSTR
 * scales the per-workload trace length (default here is deliberately
 * small — the subject is the server, not the simulator).
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/prom.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "stats/table.h"

using namespace ibs;

int
main()
{
    std::signal(SIGPIPE, SIG_IGN);

    BenchReport report("server");
    const uint64_t n = benchInstructions(200000);
    const std::string suite = "ibs_mach";
    const std::vector<std::string> configs = {"economy",
                                              "high_performance"};
    const std::vector<std::string> workloads = {}; // Full suite.

    serve::ServerConfig config = serve::ServerConfig::fromEnv();
    config.port = 0; // Always ephemeral: benches must not collide.
    // Admit every load level below; rejections would skew latency.
    config.maxInflight = 64;
    serve::Server server(config);
    server.start();

    // --- Cold vs warm: the memo is the whole point. -------------
    double cold_seconds = 0, warm_seconds = 0;
    {
        serve::Client client(server.port());
        WallTimer cold_timer;
        serve::Client::SweepResult cold = client.sweep(
            suite, configs, workloads, n);
        cold_seconds = cold_timer.seconds();
        WallTimer warm_timer;
        serve::Client::SweepResult warm = client.sweep(
            suite, configs, workloads, n);
        warm_seconds = warm_timer.seconds();
        if (!cold.ok || !warm.ok || cold.memoHit || !warm.memoHit) {
            std::fprintf(stderr,
                         "server_bench: memo probe failed "
                         "(cold ok=%d hit=%d, warm ok=%d hit=%d)\n",
                         int(cold.ok), int(cold.memoHit),
                         int(warm.ok), int(warm.memoHit));
            return 1;
        }
        const uint64_t instructions = n * cold.cells.size();
        report.addCell("cold",
                       Json::object().set("memo_hit",
                                          Json::boolean(false)),
                       Json::object()
                           .set("seconds", Json::number(cold_seconds))
                           .set("cells",
                                Json::number(uint64_t{
                                    cold.cells.size()})),
                       cold_seconds, instructions, "latency");
        report.addCell("warm",
                       Json::object().set("memo_hit",
                                          Json::boolean(true)),
                       Json::object()
                           .set("seconds", Json::number(warm_seconds))
                           .set("cells",
                                Json::number(uint64_t{
                                    warm.cells.size()})),
                       warm_seconds, instructions, "latency");
    }

    // --- Cross-check: server histogram vs client clocks. --------
    // A short sequential warm-probe phase gives both sides the same
    // distribution: every latency below was clocked by this client
    // AND recorded in the server's serve.sweep.latency_us histogram.
    // Sequential on purpose — see the file comment.
    std::vector<double> probe_latencies = {cold_seconds,
                                           warm_seconds};
    {
        serve::Client client(server.port());
        for (int i = 0; i < 8; ++i) {
            WallTimer probe_timer;
            if (!client.sweep(suite, configs, workloads, n).ok) {
                std::fprintf(stderr,
                             "server_bench: warm probe failed\n");
                return 1;
            }
            probe_latencies.push_back(probe_timer.seconds());
        }
        WallTimer scrape_timer;
        const std::string text = client.metricsText();
        obs::PromHistogram latency;
        if (!obs::parsePromHistogram(
                text, "ibs_serve_sweep_latency_us", latency) ||
            latency.count == 0) {
            std::fprintf(stderr,
                         "server_bench: metrics carry no "
                         "ibs_serve_sweep_latency_us histogram\n");
            return 1;
        }
        std::sort(probe_latencies.begin(), probe_latencies.end());
        const double client_p50 =
            serve::percentile(probe_latencies, 0.50);
        const double client_p99 =
            serve::percentile(probe_latencies, 0.99);
        const double server_p50 = latency.quantile(0.50);
        const double server_p99 = latency.quantile(0.99);
        const bool ok50 =
            serve::latencyBucketsAgree(client_p50, server_p50);
        const bool ok99 =
            serve::latencyBucketsAgree(client_p99, server_p99);
        std::printf("cross-check: client p50=%.1fms p99=%.1fms, "
                    "server bucket p50<=%.1fms p99<=%.1fms (%s)\n",
                    client_p50 * 1e3, client_p99 * 1e3,
                    server_p50 / 1e3, server_p99 / 1e3,
                    ok50 && ok99 ? "agree" : "DIVERGE");
        report.addCell(
            "cross_check",
            Json::object().set("source",
                               Json::string("metrics_endpoint")),
            Json::object()
                .set("client_p50_seconds", Json::number(client_p50))
                .set("client_p99_seconds", Json::number(client_p99))
                .set("server_p50_bucket_us",
                     Json::number(server_p50))
                .set("server_p99_bucket_us",
                     Json::number(server_p99))
                .set("server_histogram_count",
                     Json::number(latency.count))
                .set("agree", Json::boolean(ok50 && ok99)),
            scrape_timer.seconds(), 0, "metrics");
        if (!ok50 || !ok99) {
            std::fprintf(
                stderr,
                "server_bench: server-side sweep latency "
                "percentiles diverge from client-side by more than "
                "one log2 bucket (2x); both sides timed the same "
                "requests\n");
            return 1;
        }
    }

    // --- Throughput at two (or more) concurrency levels. --------
    const std::vector<unsigned> levels = {1, 4};
    const unsigned requests_per_conn = 4;
    TextTable table("Sweep server throughput (warm memo)");
    table.setHeader({"connections", "req/s", "p50 (ms)", "p99 (ms)",
                     "rejected"});
    for (unsigned level : levels) {
        const serve::LoadResult load = serve::runLoad(
            server.port(), level, requests_per_conn, suite, configs,
            workloads, n);
        if (load.failed != 0) {
            for (const std::string &error : load.errors)
                std::fprintf(stderr, "server_bench: %s\n",
                             error.c_str());
            std::fprintf(stderr,
                         "server_bench: %llu request(s) failed at "
                         "%u connection(s)\n",
                         static_cast<unsigned long long>(load.failed),
                         level);
            return 1;
        }
        const double rps =
            load.wallSeconds > 0
                ? static_cast<double>(load.completed) /
                      load.wallSeconds
                : 0;
        table.addRow({std::to_string(level), TextTable::num(rps, 2),
                      TextTable::num(load.p50 * 1e3, 2),
                      TextTable::num(load.p99 * 1e3, 2),
                      std::to_string(load.rejected)});
        report.addCell(
            "mixed",
            Json::object().set("connections",
                               Json::number(uint64_t{level})),
            Json::object()
                .set("requests", Json::number(load.completed))
                .set("rejected", Json::number(load.rejected))
                .set("requests_per_second", Json::number(rps))
                .set("p50_seconds", Json::number(load.p50))
                .set("p99_seconds", Json::number(load.p99)),
            load.wallSeconds, n * load.cells, "throughput",
            "conns_" + std::to_string(level));
    }
    std::printf("%s", table.render().c_str());
    std::printf("\ncold=%.3fs warm=%.3fs (warm speedup %.1fx)\n",
                cold_seconds, warm_seconds,
                warm_seconds > 0 ? cold_seconds / warm_seconds : 0);

    const serve::Server::Counters counters = server.counters();
    server.requestStop();
    server.wait();

    report.meta()
        .set("instructions_per_workload", Json::number(n))
        .set("server_sweeps", Json::number(counters.sweeps))
        .set("server_cells", Json::number(counters.cells))
        .set("memo_warm_faster",
             Json::boolean(warm_seconds < cold_seconds));
    report.write();
    return 0;
}
