/**
 * @file
 * Client implementation.
 */

#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/registry.h"
#include "stats/report.h"

namespace ibs::serve {

namespace {

Json
sweepMessage(const std::string &suite,
             const std::vector<std::string> &configs,
             const std::vector<std::string> &workloads,
             uint64_t instructions, const std::string &req_id)
{
    Json config_list = Json::array();
    for (const std::string &name : configs)
        config_list.push(Json::string(name));
    Json message = Json::object()
                       .set("type", Json::string("sweep"))
                       .set("suite", Json::string(suite))
                       .set("configs", std::move(config_list))
                       .set("instructions",
                            Json::number(instructions));
    if (!workloads.empty()) {
        Json workload_list = Json::array();
        for (const std::string &name : workloads)
            workload_list.push(Json::string(name));
        message.set("workloads", std::move(workload_list));
    }
    if (!req_id.empty())
        message.set("req_id", Json::string(req_id));
    return message;
}

} // namespace

Client::Client(uint16_t port) { connect(port); }

Client::~Client() { close(); }

void
Client::connect(uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        throw std::runtime_error("client: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error(
            "client: cannot connect to 127.0.0.1:" +
            std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::send(const Json &message)
{
    if (fd_ < 0)
        throw std::runtime_error("client: not connected");
    if (!writeFrame(fd_, message))
        throw std::runtime_error("client: server connection lost");
}

bool
Client::receive(Json &out)
{
    if (fd_ < 0)
        throw std::runtime_error("client: not connected");
    std::string error;
    const FrameStatus status = readFrame(fd_, out, error);
    if (status == FrameStatus::Ok)
        return true;
    if (status == FrameStatus::Eof)
        return false;
    throw std::runtime_error("client: bad frame from server: " +
                             error);
}

bool
Client::ping()
{
    send(Json::object().set("type", Json::string("ping")));
    Json response;
    if (!receive(response))
        return false;
    const Json *type = response.find("type");
    return type && type->isString() && type->asString() == "pong";
}

Json
Client::stats()
{
    send(Json::object().set("type", Json::string("stats")));
    Json response;
    if (!receive(response))
        throw std::runtime_error(
            "client: server closed before answering stats");
    const Json *type = response.find("type");
    if (!type || !type->isString() || type->asString() != "stats")
        throw std::runtime_error(
            "client: unexpected response to stats request");
    return response;
}

std::string
Client::metricsText()
{
    send(Json::object().set("type", Json::string("metrics")));
    Json response;
    if (!receive(response))
        throw std::runtime_error(
            "client: server closed before answering metrics");
    const Json *type = response.find("type");
    if (!type || !type->isString() || type->asString() != "metrics")
        throw std::runtime_error(
            "client: unexpected response to metrics request");
    const Json *text = response.find("text");
    if (!text || !text->isString())
        throw std::runtime_error(
            "client: metrics response lacks a string \"text\"");
    return text->asString();
}

void
Client::shutdown()
{
    send(Json::object().set("type", Json::string("shutdown")));
    Json response;
    receive(response); // "shutting_down", or EOF if it raced out.
}

Client::SweepResult
Client::sweep(const std::string &suite,
              const std::vector<std::string> &configs,
              const std::vector<std::string> &workloads,
              uint64_t instructions, const std::string &req_id)
{
    send(sweepMessage(suite, configs, workloads, instructions,
                      req_id));
    SweepResult result;
    Json frame;
    while (receive(frame)) {
        const Json *type = frame.find("type");
        if (!type || !type->isString())
            throw std::runtime_error(
                "client: typeless frame from server");
        const std::string &kind = type->asString();
        if (kind == "error") {
            const Json *code = frame.find("code");
            const Json *message = frame.find("message");
            result.errorCode =
                code && code->isNumber()
                    ? static_cast<int>(code->asNumber())
                    : -1;
            if (message && message->isString())
                result.errorMessage = message->asString();
            return result;
        }
        if (kind == "start") {
            const Json *cells = frame.find("cells");
            const Json *hit = frame.find("memo_hit");
            if (cells && cells->isNumber())
                result.cellsExpected =
                    static_cast<uint64_t>(cells->asNumber());
            result.memoHit = hit &&
                             hit->kind() == Json::Kind::Bool &&
                             hit->asBool();
            continue;
        }
        if (kind == "cell") {
            result.cells.push_back(frame);
            continue;
        }
        if (kind == "done") {
            const Json *wall = frame.find("wall_seconds");
            if (wall && wall->isNumber())
                result.wallSeconds = wall->asNumber();
            result.ok = true;
            return result;
        }
        throw std::runtime_error(
            "client: unexpected frame type \"" + kind +
            "\" inside a sweep");
    }
    throw std::runtime_error(
        "client: server closed mid-sweep (" +
        std::to_string(result.cells.size()) + " of " +
        std::to_string(result.cellsExpected) + " cells arrived)");
}

LoadResult
runLoad(uint16_t port, unsigned connections, unsigned requests,
        const std::string &suite,
        const std::vector<std::string> &configs,
        const std::vector<std::string> &workloads,
        uint64_t instructions)
{
    std::mutex mutex;
    std::vector<double> latencies; // Seconds, one per completion.
    LoadResult out;
    WallTimer run_timer;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < connections; ++t) {
        threads.emplace_back([&] {
            try {
                Client client(port);
                for (unsigned r = 0; r < requests; ++r) {
                    WallTimer request_timer;
                    const Client::SweepResult result = client.sweep(
                        suite, configs, workloads, instructions);
                    const double seconds = request_timer.seconds();
                    std::lock_guard<std::mutex> lock(mutex);
                    if (result.ok) {
                        ++out.completed;
                        out.cells += result.cells.size();
                        latencies.push_back(seconds);
                    } else if (result.errorCode == 429) {
                        ++out.rejected;
                    } else {
                        ++out.failed;
                        out.errors.push_back(
                            "request failed (" +
                            std::to_string(result.errorCode) +
                            "): " + result.errorMessage);
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                ++out.failed;
                out.errors.push_back(e.what());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    out.wallSeconds = run_timer.seconds();
    std::sort(latencies.begin(), latencies.end());
    out.p50 = percentile(latencies, 0.50);
    out.p99 = percentile(latencies, 0.99);
    return out;
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
}

bool
latencyBucketsAgree(double client_seconds, double server_edge_us)
{
    const double client_edge = static_cast<double>(
        obs::log2BucketUpperEdge(
            static_cast<uint64_t>(client_seconds * 1e6)));
    const double hi = std::max(client_edge, server_edge_us);
    const double lo = std::min(client_edge, server_edge_us);
    // 2.01 admits exactly one bucket of slack (adjacent edges are
    // ~2.0005 apart); lo is 0 only for an empty server histogram.
    return lo > 0 && hi / lo <= 2.01;
}

} // namespace ibs::serve
