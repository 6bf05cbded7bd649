/**
 * @file
 * Wire protocol of the sweep server: length-prefixed JSON frames.
 *
 * Every message in either direction is one frame:
 *
 *   +----------------+---------------------------+
 *   | 4-byte length  | JSON document (UTF-8-ish) |
 *   | big-endian u32 | exactly `length` bytes    |
 *   +----------------+---------------------------+
 *
 * The payload is a single JSON object with a "type" member; the JSON
 * encoder/decoder is the dependency-free one in stats/report.h.
 * Frames longer than kMaxFrameBytes are rejected without reading the
 * payload — an attacker (or a corrupted client) cannot make the
 * server allocate an arbitrary buffer — and because the stream can
 * no longer be resynchronized after a bad header, oversized and
 * truncated frames close the connection. A payload that is valid as
 * a frame but not as JSON leaves the framing intact: the server
 * answers with a structured error and keeps the connection.
 *
 * Requests:  {"type":"ping"} | {"type":"stats"} |
 *            {"type":"shutdown"} |
 *            {"type":"sweep","suite":...,"configs":[...],
 *             "workloads":[...],"instructions":N}
 * Responses: {"type":"pong"} | {"type":"stats",...} |
 *            {"type":"shutting_down"} |
 *            {"type":"start",...} then one {"type":"cell",...} per
 *            finished cell then {"type":"done",...} |
 *            {"type":"error","code":400|429|500,"message":...}
 *
 * Request ids: any request may carry a string "req_id"; the server
 * echoes it verbatim in every frame it sends for that request (for a
 * sweep: the "start", every "cell", and the "done" frame) and uses
 * it in its access log, so a client can correlate its own records
 * with server-side telemetry and traces. When the member is absent
 * or not a non-empty string, the server assigns "s-<n>" from a
 * process-wide sequence and echoes that instead — every response
 * frame to a well-formed request therefore carries a "req_id".
 *
 * The "stats" response is the server's telemetry: "counters" (its
 * lifetime connection/request/sweep/cell/rejection/protocol-error
 * counts and the current "inflight"), "max_inflight",
 * "uptime_wall_seconds", "memo" (serve/memo.h), "registry" (the obs
 * registry's counters; obs::Registry::snapshotJson) and "histograms"
 * (every registry histogram's exact buckets, overflow, sum and
 * count, as obs::histogramsToJson writes them and
 * obs::histogramsFromJson reads them back). Any other request type
 * gets a 400.
 */

#ifndef IBS_SERVE_PROTOCOL_H
#define IBS_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>

#include "stats/report.h"

namespace ibs::serve {

/** Protocol revision sent in "start" frames. */
constexpr uint32_t kProtocolVersion = 1;

/** Hard cap on one frame's payload; larger headers are rejected
 *  before any payload allocation. */
constexpr uint32_t kMaxFrameBytes = 4u << 20;

/** Outcome of readFrame. */
enum class FrameStatus
{
    Ok,        ///< A frame arrived and parsed.
    Eof,       ///< Peer closed cleanly at a frame boundary.
    Truncated, ///< Stream ended (or I/O failed) inside a frame.
    Oversized, ///< Header announced more than kMaxFrameBytes.
    BadJson,   ///< Framing intact, payload is not valid JSON.
};

/** True for the statuses after which the byte stream is still in
 *  sync and the connection can keep serving. */
inline bool
recoverable(FrameStatus s)
{
    return s == FrameStatus::Ok || s == FrameStatus::BadJson;
}

/**
 * Write `n` bytes, looping over partial writes and EINTR. SIGPIPE is
 * suppressed (MSG_NOSIGNAL); a dead peer returns false.
 */
bool writeAll(int fd, const void *data, size_t n);

/** Serialize (compact) and send one frame. False on I/O failure. */
bool writeFrame(int fd, const Json &message);

/** As writeFrame, additionally adding the frame's full wire size
 *  (header + payload) to *bytes_out on success — the server's
 *  per-request bytes_out accounting. Not atomic: callers serialize
 *  via their connection write mutex. */
bool writeFrame(int fd, const Json &message, uint64_t *bytes_out);

/**
 * Read one frame.
 *
 * @param fd connected socket
 * @param out parsed payload on Ok
 * @param error human-readable cause for non-Ok statuses
 */
FrameStatus readFrame(int fd, Json &out, std::string &error);

/** {"type":"error","code":code,"message":message}. */
Json errorMessage(int code, const std::string &message);

} // namespace ibs::serve

#endif // IBS_SERVE_PROTOCOL_H
