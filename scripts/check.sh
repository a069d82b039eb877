#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes over the concurrent subsystems:
# ThreadSanitizer, AddressSanitizer and UndefinedBehaviorSanitizer over
# the parallel Monte-Carlo engine, the blocked skew kernel, the serving
# layer, the network front end, the desim kernel and the levelized
# fault trials checked against it. TSan builds run the portable clone
# of the eight-lane kernel (see VSYNC_LANE_CLONES in common/rng.hh);
# ASan and UBSan run the clone the host picks. Run from the repo root:
#
#   scripts/check.sh          # full tier-1 + TSan + ASan + UBSan
#   scripts/check.sh --fast   # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

SAN_TARGETS=(test_parallel_mc test_skew_kernel test_skew_block
             test_desim test_fault test_obs test_serve test_net test_dist)
SAN_REGEX='^test_(parallel_mc|skew_kernel|skew_block|desim|fault|obs|serve|net|dist)$'

echo "== tier-1: configure, build, ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest --output-on-failure -j"$JOBS")

if [[ "${1:-}" == "--fast" ]]; then
    exit 0
fi

echo "== TSan: parallel MC engine + skew kernel + desim + fault sweeps + observability + serving + net + dist =="
cmake -B build-tsan -S . -DVSYNC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-tsan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== ASan: same targets under AddressSanitizer =="
cmake -B build-asan -S . -DVSYNC_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-asan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== UBSan: same targets under UndefinedBehaviorSanitizer =="
cmake -B build-ubsan -S . -DVSYNC_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS" --target "${SAN_TARGETS[@]}"
(cd build-ubsan && ctest --output-on-failure -R "$SAN_REGEX")

echo "== all checks passed =="
