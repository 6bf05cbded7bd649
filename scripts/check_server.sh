#!/bin/sh
# End-to-end check of the sweep server: start tools/ibs_serve with obs
# tracing on, drive it with tools/ibs_loadgen (--check: server-side
# histogram percentiles must agree with the client's clocks), scrape
# the metrics endpoint with tools/ibs_stat and validate the Prometheus
# exposition text, then SIGINT the server mid-service and require a
# clean drain — exit status 0 and a trace file that validates as
# Perfetto traceEvents JSON, including one async request span whose
# flow steps cross pool threads (the server runs with IBS_THREADS=4 so
# cells fan out even on a single-core machine).
#
# Usage: check_server.sh <ibs_serve> <ibs_loadgen> \
#            <validate_bench_json> <ibs_stat>
#
# Wired in as the "server_check" ctest (tests/CMakeLists.txt); also
# runnable by hand from a build tree:
#
#   scripts/check_server.sh build/tools/ibs_serve \
#       build/tools/ibs_loadgen build/tools/validate_bench_json \
#       build/tools/ibs_stat

set -eu

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <ibs_serve> <ibs_loadgen> <validator> <ibs_stat>" >&2
    exit 2
fi

serve="$1"
loadgen="$2"
validator="$3"
stat="$4"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_server.XXXXXX")
# Background children still running at exit (a step failed before
# they were waited for) are killed, so a failure never leaks an
# ibs_serve or a loadgen. Each pid is cleared once waited for.
serve_pid=""
loadgen_pid=""
cleanup() {
    for pid in $serve_pid $loadgen_pid; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

# IBS_THREADS=4: the cross-thread flow check below needs a worker
# pool even when the host reports one core.
env -u IBS_PROGRESS \
    IBS_SERVE_PORT=0 IBS_OBS=1 IBS_THREADS=4 \
    IBS_OBS_TRACE="$workdir/serve_trace.json" \
    "$serve" > "$workdir/serve.out" 2> "$workdir/serve.err" &
serve_pid=$!

# The first stdout line is "LISTENING <port>".
port=""
for _ in $(seq 1 50); do
    port=$(awk '/^LISTENING /{print $2}' "$workdir/serve.out" \
        2>/dev/null || true)
    [ -n "$port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "FAIL: ibs_serve exited before listening" >&2
        cat "$workdir/serve.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "FAIL: ibs_serve never printed its port" >&2
    exit 1
fi

# --check: the server's sweep-latency histogram must agree with the
# client-side percentiles of the same requests (within one log2
# bucket at p50/p99). One connection on purpose: queueing ahead of
# the server's frame read — inevitable for concurrent clients on a
# busy core — is visible only to the client clock, so the
# comparison is meaningful for sequential requests.
"$loadgen" --port "$port" --connections 1 --requests-per-conn 4 \
    --suite ibs_mach --configs economy,high_performance \
    --workloads gs.mach,nroff.mach --instructions 20000 \
    --check > "$workdir/loadgen.out"

if ! grep -q 'failed=0' "$workdir/loadgen.out"; then
    echo "FAIL: loadgen --check reported failures" >&2
    cat "$workdir/loadgen.out" >&2
    exit 1
fi

# Concurrent load (no --check; see above): 4 connections x 4
# requests, all admitted by the server's default of 4 in-flight
# requests, so any failure is a real one.
"$loadgen" --port "$port" --connections 4 --requests-per-conn 4 \
    --suite ibs_mach --configs economy,high_performance \
    --workloads gs.mach,nroff.mach --instructions 20000 \
    > "$workdir/loadgen_load.out"

if ! grep -q 'failed=0' "$workdir/loadgen_load.out"; then
    echo "FAIL: loadgen reported failures" >&2
    cat "$workdir/loadgen_load.out" >&2
    exit 1
fi

# The metrics endpoint serves well-formed Prometheus exposition text
# and ibs_stat renders its one-liner from it.
"$stat" --port "$port" --raw > "$workdir/metrics.txt"
"$validator" --prom "$workdir/metrics.txt"
"$stat" --port "$port" --once > "$workdir/stat.out"
if ! grep -q 'req/s' "$workdir/stat.out"; then
    echo "FAIL: ibs_stat printed no req/s line" >&2
    cat "$workdir/stat.out" >&2
    exit 1
fi

# SIGINT while a request is in flight: the drain must finish the
# stream (the backgrounded loadgen sees no failure) and exit 0. A
# fresh, larger instruction budget forces a cold materialization so
# the request is still running when the signal lands.
"$loadgen" --port "$port" --connections 1 --requests-per-conn 1 \
    --suite ibs_mach --configs economy \
    --workloads gs.mach,nroff.mach --instructions 1000000 \
    > "$workdir/loadgen2.out" &
loadgen_pid=$!
sleep 0.1
kill -INT "$serve_pid"

rc=0
wait "$serve_pid" || rc=$?
serve_pid=""
if [ "$rc" -ne 0 ]; then
    echo "FAIL: ibs_serve exited $rc after SIGINT" >&2
    cat "$workdir/serve.err" >&2
    exit 1
fi
lrc=0
wait "$loadgen_pid" || lrc=$?
loadgen_pid=""
if [ "$lrc" -ne 0 ]; then
    echo "FAIL: in-flight request was not drained (loadgen $lrc)" >&2
    cat "$workdir/loadgen2.out" >&2
    exit 1
fi

if [ ! -f "$workdir/serve_trace.json" ]; then
    echo "FAIL: ibs_serve wrote no obs trace" >&2
    exit 1
fi
"$validator" --trace "$workdir/serve_trace.json"
# Request spans are async ("b"/"e") with flow steps that must cross
# at least two pool threads for at least one sweep.
"$validator" --trace-flow 2 "$workdir/serve_trace.json"

if ! grep -q 'served' "$workdir/serve.err"; then
    echo "FAIL: ibs_serve summary line missing" >&2
    exit 1
fi

echo "PASS: ibs_serve serves, cross-checks and drains cleanly on SIGINT"
