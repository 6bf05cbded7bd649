#!/bin/sh
# Sanitizer run of the whole test suite: configure a separate build
# tree with AddressSanitizer and UndefinedBehaviorSanitizer on every
# target (IBS_SANITIZE=address,undefined) plus libstdc++'s container
# bounds assertions, build it, and run ctest over it in parallel. A
# report fails the test that triggered it: ASan aborts on its first
# error, and -fno-sanitize-recover makes UBSan do the same instead of
# logging and continuing.
#
# Usage: check_sanitize.sh <build-dir>
#
# Not part of tier-1 (an instrumented build plus a full test run takes
# several minutes); run it by hand from the repo root, e.g.
#
#   scripts/check_sanitize.sh build-asan

set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi

src=$(cd "$(dirname "$0")/.." && pwd)
build="$1"
jobs=$(nproc 2>/dev/null || echo 2)

cmake -B "$build" -S "$src" -DIBS_SANITIZE=address,undefined \
    "-DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS -fno-sanitize-recover=undefined"
cmake --build "$build" -j "$jobs"
UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$build" --output-on-failure -j "$jobs"
