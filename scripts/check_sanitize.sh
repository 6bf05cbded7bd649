#!/bin/sh
# Sanitizer run of the whole test suite: configure a separate build
# tree with the given sanitizers on every target (IBS_SANITIZE) plus
# libstdc++'s container bounds assertions, build it, and run ctest
# over it in parallel. A report fails the test that triggered it:
# ASan aborts on its first error, -fno-sanitize-recover makes UBSan do
# the same instead of logging and continuing, and a process that
# ThreadSanitizer reported on exits nonzero (its exitcode, 66).
#
# Usage: check_sanitize.sh <build-dir> [sanitizers]
#
# sanitizers is an -fsanitize= list and defaults to address,undefined.
# ThreadSanitizer cannot share a build with ASan, so it gets its own
# tree. Not part of tier-1 (an instrumented build plus a full test run
# takes several minutes); run it by hand from the repo root, e.g.
#
#   scripts/check_sanitize.sh build-asan
#   scripts/check_sanitize.sh build-tsan thread

set -eu

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 <build-dir> [sanitizers]" >&2
    exit 2
fi

src=$(cd "$(dirname "$0")/.." && pwd)
build="$1"
sanitizers="${2:-address,undefined}"
jobs=$(nproc 2>/dev/null || echo 2)

cmake -B "$build" -S "$src" "-DIBS_SANITIZE=$sanitizers" \
    "-DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS -fno-sanitize-recover=undefined"
cmake --build "$build" -j "$jobs"
UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$build" --output-on-failure -j "$jobs"
