#!/usr/bin/env bash
# Reproduce the CI-only checks locally, in three gitignored build trees:
#   build-asan/   ASan+UBSan: the whole ctest suite, then hm_alloc_tests
#                 explicitly (its counting operator new runs under ASan).
#   build-tsan/   TSan: the shard, sim-core and scheduler suites.
#   build-debug/  Debug (-O0, asserts on): the tier-1 golden subset, which
#                 shows the determinism contract does not depend on the
#                 optimisation level.
# Usage: tools/sanitize.sh   (no options; run from anywhere in the repo)
# Exits non-zero at the first failing build or check.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc)"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi

echo "== ASan+UBSan (build-asan)"
cmake -B build-asan -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHM_SANITIZE=address,undefined -DHM_BUILD_BENCH=OFF -DHM_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$jobs"
export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1
ctest --test-dir build-asan --output-on-failure -j "$jobs"
./build-asan/tests/hm_alloc_tests

echo "== TSan (build-tsan)"
cmake -B build-tsan -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHM_SANITIZE=thread -DHM_BUILD_BENCH=OFF -DHM_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$jobs"
export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
./build-tsan/tests/hm_shard_tests
./build-tsan/tests/hm_sim_tests
./build-tsan/tests/hm_scheduler_tests

echo "== Debug -O0 golden subset (build-debug)"
cmake -B build-debug -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=Debug \
  -DHM_BUILD_TESTS=OFF -DHM_BUILD_EXAMPLES=OFF
cmake --build build-debug -j "$jobs" --target fig4_scale_sweep steady_state_sweep
python3 tools/golden_matrix.py --build-dir build-debug --tier1

echo "== all sanitizer and Debug checks passed"
