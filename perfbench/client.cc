/**
 * @file
 * Closed-loop client of ibs_serve for the benchmark's serve workloads.
 *
 * One connection sends one sweep request at a time and waits for its
 * "done" frame before sending the next, like a script that needs each
 * answer before it asks again. Every request is the same: every
 * catalog config class over the IBS Mach suite at one instruction
 * budget. The first request is the set-up: it memoizes the key's
 * traces, and its latency is reported as setup_ms. The requests after
 * it are timed, for --seconds.
 *
 * Every answer is checked: the cells' stats, ordered by (config,
 * workload) index, are hashed and compared with the expected digest.
 * A request fails if it ends in an error frame or a transport error,
 * if a cell is missing, or if the digest differs.
 *
 * Before every request, while the server is idle, the client pins all
 * of the server's threads to the --server-cpus CPUs on which a short
 * fixed loop runs fastest at that moment (see pinFastest). A request's
 * speed is kProbeRefSeconds over that loop's time on those CPUs,
 * averaged over just before and just after the request.
 *
 * Usage:
 *   perfbench_client --port P --budget B --expect HEX --server-pid PID
 *       --server-cpus N [--seconds T] [--req-prefix ID]
 *
 * The last stdout line is a JSON object: requests and failed (set-up
 * included), memo_hits (timed requests only), setup_ms and setup_speed,
 * latency_ms, end_s and speed (latency, completion time and speed of
 * each completed timed request), cpu_marks ([seconds, server CPU
 * seconds, speed of the request just ended] read from /proc at the
 * start and after each timed request), digests (budget -> observed
 * digest) and errors (the first few failure messages).
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/catalog.h"
#include "serve/client.h"
#include "stats/report.h"

namespace {

using namespace ibs;
using Clock = std::chrono::steady_clock;

const char *const kSuite = "ibs_mach";
/** Iterations of the CPU speed probe, and its seconds on a fast vCPU of
 *  the measuring host: times are scaled to a vCPU that runs it this
 *  fast. */
constexpr int kProbeIters = 200000;
constexpr double kProbeRefSeconds = 0.00062;

struct Options
{
    uint16_t port = 0;
    uint64_t budget = 0;
    std::string expect;
    double seconds = 0;
    std::string reqPrefix = "pb";
    long serverPid = 0;
    size_t serverCpus = 0;
};

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t end = text.find(sep, start);
        out.push_back(text.substr(start, end - start));
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    return out;
}

uint64_t
parseCount(const std::string &text)
{
    size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size() || v == 0)
        throw std::invalid_argument("bad count \"" + text + "\"");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--port") {
            o.port = static_cast<uint16_t>(parseCount(value));
        } else if (arg == "--budget") {
            o.budget = parseCount(value);
        } else if (arg == "--expect") {
            o.expect = value;
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value);
        } else if (arg == "--req-prefix") {
            o.reqPrefix = value;
        } else if (arg == "--server-pid") {
            o.serverPid = static_cast<long>(parseCount(value));
        } else if (arg == "--server-cpus") {
            o.serverCpus = parseCount(value);
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (o.port == 0 || o.budget == 0 || o.expect.empty() ||
        o.serverPid == 0 || o.serverCpus == 0)
        throw std::invalid_argument("--port, --budget, --expect, "
                                    "--server-pid and --server-cpus are "
                                    "required");
    return o;
}

/** User plus system CPU seconds of process `pid`, or -1. */
double
processCpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t paren = text.rfind(')');
    if (paren == std::string::npos)
        return -1;
    // Fields after the command name: state is field 3, utime 14,
    // stime 15 (proc(5)); token 0 here is the state.
    std::vector<std::string> fields = split(text.substr(paren + 2), ' ');
    if (fields.size() < 13)
        return -1;
    const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

volatile uint64_t g_probeSink;

/** Seconds a short fixed loop takes on each CPU this process may use,
 *  as (seconds, cpu), fastest first. */
std::vector<std::pair<double, int>>
probeCpus()
{
    std::vector<std::pair<double, int>> speed;
    cpu_set_t all;
    if (::sched_getaffinity(0, sizeof(all), &all) != 0)
        return speed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &all))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (::sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        const auto t0 = Clock::now();
        uint64_t lanes[4] = {1, 2, 3, 4};
        for (int i = 0; i < kProbeIters; ++i) {
            for (uint64_t &v : lanes) {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
            }
        }
        g_probeSink = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
        speed.push_back(
            {std::chrono::duration<double>(Clock::now() - t0).count(), cpu});
    }
    ::sched_setaffinity(0, sizeof(all), &all);
    std::sort(speed.begin(), speed.end());
    return speed;
}

/** Mean probe seconds of `cpus` in `probe`. */
double
probeSeconds(const std::vector<std::pair<double, int>> &probe,
             const std::vector<int> &cpus)
{
    double sum = 0;
    for (const auto &[seconds, cpu] : probe)
        if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end())
            sum += seconds;
    return cpus.empty() ? kProbeRefSeconds : sum / cpus.size();
}

/**
 * Pins every thread of process `pid` to the `count` fastest CPUs of
 * `probe` and returns them. The measuring host's vCPUs each flip
 * between a fast state and one about 1.4x slower, independently and
 * about once a second (perfbench/NOTES.md, "vCPU pinning"); a server
 * whose threads go wherever the scheduler puts them runs at a random
 * mix of the two. Called between requests, while the server is idle,
 * so the probe times the vCPUs and not the server.
 */
std::vector<int>
pinFastest(long pid, const std::vector<std::pair<double, int>> &probe,
           size_t count)
{
    std::vector<int> cpus;
    cpu_set_t fast;
    CPU_ZERO(&fast);
    for (size_t i = 0; i < probe.size() && i < count; ++i) {
        cpus.push_back(probe[i].second);
        CPU_SET(probe[i].second, &fast);
    }
    std::error_code ec;
    for (const auto &task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task", ec))
        ::sched_setaffinity(std::stoi(task.path().filename().string()),
                            sizeof(fast), &fast);
    return cpus;
}

/** FNV-1a, 64-bit, as 16 hex digits. */
std::string
fnv1a(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Digest of one sweep's answers: each cell's "config/workload=stats"
 * line in (config_index, workload_index) order, so the order in which
 * the server's workers finished does not matter. Throws when a cell
 * frame lacks a member or the answer is incomplete.
 */
std::string
cellsDigest(const serve::Client::SweepResult &result)
{
    std::vector<std::pair<std::pair<double, double>, std::string>>
        lines;
    for (const Json &cell : result.cells) {
        const std::string line = cell.at("config").asString() + "/" +
            cell.at("workload").asString() + "=" +
            cell.at("stats").dump(0) + "\n";
        lines.push_back({{cell.at("config_index").asNumber(),
                          cell.at("workload_index").asNumber()},
                         line});
    }
    if (lines.size() != result.cellsExpected || lines.empty())
        throw std::runtime_error(
            std::to_string(lines.size()) + " of " +
            std::to_string(result.cellsExpected) + " cells arrived");
    std::sort(lines.begin(), lines.end());
    std::string text;
    for (const auto &entry : lines)
        text += entry.second;
    return fnv1a(text);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    try {
        options = parseOptions(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_client: %s\n", e.what());
        return 2;
    }
    const std::vector<std::string> configs = serve::configClassNames();

    uint64_t requests = 0, failed = 0, memo_hits = 0;
    double setup_ms = 0, setup_speed = 1;
    Json latencies = Json::array();
    Json end_s = Json::array();
    Json speeds = Json::array();
    Json cpu_marks = Json::array();
    Json digests = Json::object();
    Json errors = Json::array();
    const auto note_error = [&](const std::string &message) {
        ++failed;
        if (errors.size() < 5)
            errors.push(Json::string(message));
    };
    const std::string key = std::to_string(options.budget);
    // Checks answer `r` to request `id`; false when it is an error frame.
    const auto check = [&](const std::string &id,
                           const serve::Client::SweepResult &r) {
        if (!r.ok) {
            note_error(id + ": error " + std::to_string(r.errorCode) + " " +
                       r.errorMessage);
            return false;
        }
        std::string digest;
        try {
            digest = cellsDigest(r);
        } catch (const std::exception &e) {
            note_error(id + ": " + e.what());
            return true;
        }
        digests.set(key, Json::string(digest));
        if (digest != options.expect)
            note_error(id + ": digest " + digest + " for budget " + key +
                       " does not match");
        return true;
    };

    try {
        serve::Client client(options.port);
        const std::string setup_id = options.reqPrefix + "-setup";
        // The probe before each request is also the one after the
        // previous request; pinned and before_s carry between them.
        std::vector<std::pair<double, int>> probe = probeCpus();
        std::vector<int> pinned =
            pinFastest(options.serverPid, probe, options.serverCpus);
        double before_s = probeSeconds(probe, pinned);
        const auto repin = [&] {
            probe = probeCpus();
            const double speed = kProbeRefSeconds /
                ((before_s + probeSeconds(probe, pinned)) / 2);
            pinned = pinFastest(options.serverPid, probe, options.serverCpus);
            before_s = probeSeconds(probe, pinned);
            return speed;
        };
        ++requests;
        const auto setup_t0 = Clock::now();
        const serve::Client::SweepResult setup = client.sweep(
            kSuite, configs, {}, options.budget, setup_id);
        setup_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                             setup_t0)
                       .count();
        setup_speed = repin();
        check(setup_id, setup);
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds));
        // The server is idle from the end of one request to the start of
        // the next, so its CPU time read after the probe is its own.
        const auto mark = [&](Clock::time_point t, double speed) {
            cpu_marks.push(
                Json::array()
                    .push(Json::number(
                        std::chrono::duration<double>(t - start).count()))
                    .push(Json::number(processCpuSeconds(options.serverPid)))
                    .push(Json::number(speed)));
        };
        if (options.seconds > 0)
            mark(start, 1.0);
        while (options.seconds > 0 && Clock::now() < deadline) {
            const std::string id =
                options.reqPrefix + "-" + std::to_string(requests);
            ++requests;
            serve::Client::SweepResult r;
            const auto t0 = Clock::now();
            try {
                r = client.sweep(kSuite, configs, {}, options.budget, id);
            } catch (const std::exception &e) {
                note_error(id + ": transport: " + e.what());
                break; // The connection is gone.
            }
            const auto t1 = Clock::now();
            const double speed = repin();
            mark(t1, speed);
            if (!check(id, r))
                continue;
            latencies.push(Json::number(
                std::chrono::duration<double, std::milli>(t1 - t0).count()));
            end_s.push(Json::number(
                std::chrono::duration<double>(t1 - start).count()));
            speeds.push(Json::number(speed));
            memo_hits += r.memoHit ? 1 : 0;
        }
    } catch (const std::exception &e) {
        note_error(std::string("client: ") + e.what());
        if (requests == 0)
            requests = 1;
    }

    const Json out =
        Json::object()
            .set("requests", Json::number(requests))
            .set("failed", Json::number(failed))
            .set("memo_hits", Json::number(memo_hits))
            .set("setup_ms", Json::number(setup_ms))
            .set("setup_speed", Json::number(setup_speed))
            .set("latency_ms", std::move(latencies))
            .set("end_s", std::move(end_s))
            .set("speed", std::move(speeds))
            .set("cpu_marks", std::move(cpu_marks))
            .set("digests", std::move(digests))
            .set("errors", std::move(errors));
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}
