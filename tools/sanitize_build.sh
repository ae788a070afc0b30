#!/bin/sh
# Builds and tests the tree under a sanitizer in a separate build directory,
# so the instrumented binaries never mix with the regular build.
#
# Usage: tools/sanitize_build.sh [address|thread] [ctest-regex]
#   address (default) — ASan + UBSan, full suite unless a regex is given.
#   thread            — TSan; races in the prefetch loader, its streams and
#                       I/O accounting paths.
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

MODE="address"
case "$1" in
  address|thread)
    MODE="$1"
    shift
    ;;
esac
BUILD="$ROOT/build-sanitize-$MODE"

cmake -B "$BUILD" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGRAPHSD_SANITIZE="$MODE"
cmake --build "$BUILD" -j "$(nproc)"

cd "$BUILD"
if [ -n "$1" ]; then
  ctest --output-on-failure -R "$1"
else
  ctest --output-on-failure
fi
