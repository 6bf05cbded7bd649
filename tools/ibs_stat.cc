/**
 * @file
 * ibs_stat: one-line live view of a running sweep server.
 *
 * Polls the server's `metrics` request (Prometheus text exposition;
 * see src/obs/prom.h and src/serve/protocol.h) and renders the
 * numbers an operator watches during a load test: request rate since
 * the previous poll, in-flight sweeps, total sweeps/cells served,
 * and the server-side p50/p99 of the sweep latency histogram.
 *
 *   ibs_stat --port 8423                 # poll every second, forever
 *   ibs_stat --port 8423 --interval 0.2 --count 50
 *   ibs_stat --port 8423 --once          # single scrape, then exit
 *   ibs_stat --port 8423 --raw           # dump one scrape verbatim
 *
 * --raw prints the exposition text of a single scrape unmodified
 * (for piping into `validate_bench_json --prom` or a file; the CI
 * server check does exactly that) and exits.
 *
 * The port must lie in 1-65535 and --count be a non-negative integer
 * (0, the default, polls until the connection drops); any other value
 * prints the usage line and exits 2.
 *
 * On a terminal the line redraws in place (carriage return); when
 * stdout is a pipe each sample is its own line, so scripts can
 * capture samples (scripts/check_server.sh does). Exit status is 0
 * after a clean run, 1 when the server cannot be reached or answers
 * with something other than exposition text.
 */

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "obs/prom.h"
#include "serve/client.h"
#include "sim/runner.h"

namespace {

struct Options
{
    uint16_t port = 0;
    double intervalSeconds = 1.0;
    uint64_t count = 0; ///< 0 = until the connection drops.
    bool once = false;
    bool raw = false; ///< Dump one scrape's exposition text as-is.
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --port <port> [--interval <seconds>] "
                 "[--count <n>] [--once] [--raw]\n",
                 argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--port") {
            const char *v = next();
            const std::optional<uint64_t> port =
                v ? ibs::parseCount(v, 1, 65535) : std::nullopt;
            if (!port)
                return false;
            options.port = static_cast<uint16_t>(*port);
        } else if (arg == "--interval") {
            const char *v = next();
            if (!v)
                return false;
            options.intervalSeconds = std::strtod(v, nullptr);
            if (!(options.intervalSeconds > 0))
                return false;
        } else if (arg == "--count") {
            const char *v = next();
            const std::optional<uint64_t> count =
                v ? ibs::parseCount(v, 0, UINT64_MAX) : std::nullopt;
            if (!count)
                return false;
            options.count = *count;
        } else if (arg == "--once") {
            options.once = true;
        } else if (arg == "--raw") {
            options.raw = true;
        } else {
            return false;
        }
    }
    return options.port != 0;
}

/** "2047us" / "1.2ms" / "inf" — compact latency for the one-liner. */
std::string
formatMicros(double us)
{
    char buffer[32];
    if (std::isinf(us)) {
        std::snprintf(buffer, sizeof(buffer), "inf");
    } else if (us >= 1e6) {
        std::snprintf(buffer, sizeof(buffer), "%.2fs", us / 1e6);
    } else if (us >= 1e3) {
        std::snprintf(buffer, sizeof(buffer), "%.1fms", us / 1e3);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.0fus", us);
    }
    return buffer;
}

double
promValueOr(const std::string &text, const std::string &metric,
            double fallback)
{
    double value = fallback;
    if (!ibs::obs::findPromValue(text, metric, value))
        return fallback;
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options))
        return usage(argv[0]);
    if (options.once)
        options.count = 1;

    const bool tty = ::isatty(STDOUT_FILENO) == 1;
    double prev_requests = -1.0;
    uint64_t samples = 0;
    try {
        ibs::serve::Client client(options.port);
        if (options.raw) {
            const std::string text = client.metricsText();
            std::fwrite(text.data(), 1, text.size(), stdout);
            return 0;
        }
        while (options.count == 0 || samples < options.count) {
            const std::string text = client.metricsText();
            std::string error;
            if (!ibs::obs::validatePromText(text, error)) {
                std::fprintf(stderr,
                             "ibs_stat: malformed metrics: %s\n",
                             error.c_str());
                return 1;
            }
            const double requests =
                promValueOr(text, "ibs_serve_requests", 0.0);
            const double inflight =
                promValueOr(text, "ibs_serve_inflight", 0.0);
            const double sweeps =
                promValueOr(text, "ibs_serve_sweeps", 0.0);
            const double cells =
                promValueOr(text, "ibs_serve_cells", 0.0);
            const double rate =
                prev_requests < 0.0
                    ? 0.0
                    : (requests - prev_requests) /
                          options.intervalSeconds;
            prev_requests = requests;

            std::string p50 = "-", p99 = "-";
            ibs::obs::PromHistogram latency;
            if (ibs::obs::parsePromHistogram(
                    text, "ibs_serve_sweep_latency_us", latency) &&
                latency.count > 0) {
                p50 = formatMicros(latency.quantile(0.50));
                p99 = formatMicros(latency.quantile(0.99));
            }
            std::printf("%sreq/s %7.1f | inflight %2.0f | sweeps "
                        "%6.0f | cells %7.0f | sweep p50 %7s | p99 "
                        "%7s%s",
                        tty ? "\r" : "", rate, inflight, sweeps,
                        cells, p50.c_str(), p99.c_str(),
                        tty ? "" : "\n");
            std::fflush(stdout);

            ++samples;
            if (options.count != 0 && samples >= options.count)
                break;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(
                    options.intervalSeconds));
        }
    } catch (const std::exception &e) {
        if (tty)
            std::printf("\n");
        std::fprintf(stderr, "ibs_stat: %s\n", e.what());
        return 1;
    }
    if (tty)
        std::printf("\n");
    return 0;
}
