#!/usr/bin/env bash
# CI fuzz smoke: builds the libFuzzer harnesses (clang, ASan+UBSan) and
# runs each for a bounded wall-clock budget from its checked-in seed
# corpus. This is a crash gate, not a coverage campaign — 30 seconds per
# target catches regressions in the protocol parser, checkpoint loader and
# shard validator trust boundaries on every push; longer campaigns run
# out-of-band. (The checked-in corpora themselves also replay in every test
# lane as the `fuzz_<target>_replay` ctests, no clang needed.)
#
# Usage: ci/fuzz_smoke.sh [BUILD_DIR] [SECONDS_PER_TARGET]
set -euo pipefail

BUILD_DIR="${1:-build-fuzz}"
BUDGET="${2:-30}"
cd "$(dirname "$0")/.."

CC="${CC:-clang}"
CXX="${CXX:-clang++}"
if ! command -v "${CXX}" >/dev/null; then
  echo "error: ${CXX} not found (libFuzzer needs clang)" >&2
  exit 2
fi

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_C_COMPILER="${CC}" -DCMAKE_CXX_COMPILER="${CXX}" \
  -DSQVAE_BUILD_FUZZERS=ON -DSQVAE_SANITIZE=address \
  -DSQVAE_BUILD_TESTS=OFF -DSQVAE_BUILD_BENCH=OFF \
  -DSQVAE_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target fuzz_protocol fuzz_checkpoint fuzz_shard_header

FAILED=0
for target in fuzz_protocol fuzz_checkpoint fuzz_shard_header; do
  corpus="tests/fuzz/corpus/${target#fuzz_}"
  echo "=== ${target}: ${BUDGET}s from ${corpus} ==="
  # The corpus directory is read-only input here (no -merge): CI must not
  # dirty the checked-in seeds. New inputs go to a scratch dir.
  scratch="$(mktemp -d)"
  if ! "./${BUILD_DIR}/${target}" -max_total_time="${BUDGET}" \
       -print_final_stats=1 "${scratch}" "${corpus}"; then
    echo "FUZZ FAILURE: ${target} (artifacts in ${scratch})" >&2
    FAILED=1
  fi
  rm -rf "${scratch}"
done
exit "${FAILED}"
