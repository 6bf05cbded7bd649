/**
 * @file
 * ibs_stat: one-line live view of a running sweep server.
 *
 * Polls the server's `stats` request (its one telemetry surface; see
 * src/serve/protocol.h) and renders the numbers an operator watches
 * during a load test: request rate since the previous poll (other
 * clients' requests per second of measured time; the server's
 * `requests` counter also counts each of these polls, which the rate
 * leaves out, so an idle server reads 0.0), in-flight sweeps, total
 * sweeps/cells served, and the server-side p50/p99 of
 * the sweep latency histogram (HistogramSnapshot::quantile; a
 * quantile past the histogram's last bucket prints as "inf").
 *
 *   ibs_stat --port 8423                 # poll every second, forever
 *   ibs_stat --port 8423 --interval 0.2 --count 50
 *   ibs_stat --port 8423 --once          # one sample, then exit
 *   ibs_stat --port 8423 --raw           # one stats frame as JSON
 *
 * --raw prints one `stats` frame as a line of compact JSON (for a
 * file or a JSON tool) and exits.
 *
 * The port must lie in 1-65535, --interval be a number of seconds in
 * (0, 3600] and --count a non-negative integer (0, the default, polls
 * until the connection drops); any other value prints the usage line
 * and exits 2.
 *
 * On a terminal the line redraws in place (carriage return); when
 * stdout is a pipe each sample is its own line, so scripts can
 * capture samples (scripts/check_server.sh does). Exit status is 0
 * after a clean run, 1 when the server cannot be reached or answers
 * with something other than a well-formed `stats` frame.
 */

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "obs/registry.h"
#include "serve/client.h"
#include "sim/runner.h"

namespace {

struct Options
{
    uint16_t port = 0;
    double intervalSeconds = 1.0;
    uint64_t count = 0; ///< 0 = until the connection drops.
    bool once = false;
    bool raw = false; ///< Print one stats frame as JSON.
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
            // The whole text must be a number in (0, 3600]: this
            // rejects "5x", nan, inf and 1e400, which would overflow
            // sleep_for's integer duration.
            const char *v = next();
            if (!v)
                return false;
            char *end = nullptr;
            options.intervalSeconds = std::strtod(v, &end);
            if (end == v || *end != '\0' ||
                !(options.intervalSeconds > 0 &&
                  options.intervalSeconds <= 3600))
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

/** "2047us" / "1.2ms" / "inf" — compact latency for the one-liner;
 *  UINT64_MAX is HistogramSnapshot::quantile's "past the last
 *  bucket". */
std::string
formatMicros(uint64_t us)
{
    char buffer[32];
    if (us == UINT64_MAX) {
        std::snprintf(buffer, sizeof(buffer), "inf");
    } else if (us >= 1000000) {
        std::snprintf(buffer, sizeof(buffer), "%.2fs", us / 1e6);
    } else if (us >= 1000) {
        std::snprintf(buffer, sizeof(buffer), "%.1fms", us / 1e3);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%lluus",
                      static_cast<unsigned long long>(us));
    }
    return buffer;
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
    std::chrono::steady_clock::time_point prev_time;
    uint64_t samples = 0;
    try {
        ibs::serve::Client client(options.port);
        if (options.raw) {
            std::printf("%s\n", client.stats().dump(0).c_str());
            return 0;
        }
        while (options.count == 0 || samples < options.count) {
            const ibs::Json stats = client.stats();
            const auto now = std::chrono::steady_clock::now();
            const ibs::Json &counters = stats.at("counters");
            const double requests =
                counters.at("requests").asNumber();
            // Between two replies the counter took this tool's one
            // poll; the time is what passed, not the nominal interval
            // (the sleep plus a round trip).
            double rate = 0.0;
            if (prev_requests >= 0.0) {
                const double seconds =
                    std::chrono::duration<double>(now - prev_time)
                        .count();
                rate = (requests - prev_requests - 1.0) / seconds;
            }
            prev_requests = requests;
            prev_time = now;

            std::string p50 = "-", p99 = "-";
            const auto histograms =
                ibs::obs::histogramsFromJson(stats.at("histograms"));
            if (const auto it =
                    histograms.find("serve.sweep.latency_us");
                it != histograms.end() && it->second.count > 0) {
                p50 = formatMicros(it->second.quantile(0.50));
                p99 = formatMicros(it->second.quantile(0.99));
            }
            std::printf("%sreq/s %7.1f | inflight %2.0f | sweeps "
                        "%6.0f | cells %7.0f | sweep p50 %7s | p99 "
                        "%7s%s",
                        tty ? "\r" : "", rate,
                        counters.at("inflight").asNumber(),
                        counters.at("sweeps").asNumber(),
                        counters.at("cells").asNumber(), p50.c_str(),
                        p99.c_str(),
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
