#!/bin/sh
# Golden-stdout check of one paper binary: run it at the trace length
# its golden was generated at and require stdout to match the
# committed golden byte for byte. Any drift in simulated behaviour —
# a changed digit, a missing row — fails with the unified diff on
# stderr. The BENCH_<name>.json report the same run writes must also
# pass the schema validator (src/sim/bench_report.h).
#
# Usage: check_golden.sh <bench-binary> <golden-file> \
#            <validate_bench_json-binary>
#
# Wired in as one ctest per paper binary, golden_<bench>
# (tests/CMakeLists.txt). After an intended behaviour change,
# regenerate every golden from the repo root of a built tree:
#
#   for g in tests/golden/*.txt; do IBS_BENCH_INSTR=50000 \
#       IBS_BENCH_JSON_DIR=/tmp build/bench/$(basename "$g" .txt) > "$g"; done

set -eu

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <bench-binary> <golden-file> <validator-binary>" >&2
    exit 2
fi

bench="$1"
golden="$2"
validator="$3"
name=$(basename "$bench")

workdir=$(mktemp -d "${TMPDIR:-/tmp}/ibs_golden.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

# The JSON report lands in the scratch dir so the build tree stays
# clean; only stdout is the contract (the report carries timings),
# but the report's shape is checked below.
IBS_BENCH_INSTR=50000 IBS_BENCH_JSON_DIR="$workdir" \
    "$bench" > "$workdir/stdout.txt"

if diff -u "$golden" "$workdir/stdout.txt" > "$workdir/diff.txt"; then
    echo "PASS: $name stdout matches $(basename "$golden")"
else
    echo "FAIL: $name stdout differs from $golden:" >&2
    cat "$workdir/diff.txt" >&2
    exit 1
fi

"$validator" --min-schema 2 "$workdir/BENCH_${name}.json"
