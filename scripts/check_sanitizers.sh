#!/usr/bin/env bash
# Build the full tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (the `asan-ubsan` CMake preset) and run the tier-1 test suite under it,
# then rebuild the test suite with ThreadSanitizer (the `tsan` preset)
# and run the threaded sweep-harness tests under that.  Any sanitizer
# report fails the run.
#
#   scripts/check_sanitizers.sh             # configure + build + ctest
#   OCD_SAN_FILTER='Simulator*' scripts/check_sanitizers.sh  # ASan subset
#   OCD_TSAN_FILTER='SweepGrid*' scripts/check_sanitizers.sh # TSan subset
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest_args=(--preset asan-ubsan -j "$(nproc)")
if [[ -n "${OCD_SAN_FILTER:-}" ]]; then
  ctest_args+=(-R "${OCD_SAN_FILTER}")
fi
ctest "${ctest_args[@]}"

# SIMD kernel differential pass: the vectorized token kernels promise
# bit-identity with scalar AND sanitizer-cleanliness (unaligned loads
# only, scalar tails, never a byte past num_words).  The fuzz +
# dispatch + planner-replay suites run with OCD_SIMD forced to scalar
# and again to the widest level this host can execute, so ASan/UBSan
# see every dispatch table actually run — the default auto-resolution
# above only exercises one.  The shell probe mirrors the C++ cpuid
# probe (avx512 needs VPOPCNTDQ, not just the F foundation).
simd_levels=(scalar)
if grep -qw avx512_vpopcntdq /proc/cpuinfo 2>/dev/null \
    && grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
  simd_levels+=(avx512)
elif grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd_levels+=(avx2)
fi
for level in "${simd_levels[@]}"; do
  echo "== SIMD differential pass: OCD_SIMD=${level} =="
  OCD_SIMD="${level}" ctest --preset asan-ubsan -j "$(nproc)" \
    -R 'Simd|TokenMatrix|TokenSet'
done

# ThreadSanitizer pass: all intentionally concurrent code sits on the
# ocd::util parallel runtime — the Parallel suite drives the pool
# primitives directly, Determinism replays whole planner/fault runs
# under OCD_JOBS in {1,2,8} (the simulator's sharded apply phase),
# and SweepGrid drives run_grid, including a full (policy x seed) grid
# of run_policy calls, so any shared mutable state in the planners
# shows up here.  FaultSweep runs the lossy fig_loss workload shape
# (fault models + reliable adapters) on the same pool.  The vertex-
# shard runtime rides the same pool: ShardDeterminism steps every
# shard of the in-process transport as pool chunks (the two-mailbox
# grids between phases are exactly the handoffs TSan must vet),
# ShardRecovery adds the crash-recovery driver on top (worker
# teardown/respawn and checkpoint/replay interleaved with the pool
# phases — the recovery bookkeeping claims to run only on the driver
# thread between barriers, and this pass is what holds it to that),
# and ShardPartition/BinStream cover the partitioner and the message
# codec (their data races would surface as corrupt frames, so they run
# here AND in the ASan pass above).  ShardForkTransport and
# ShardForkRecovery are deliberately absent from the filter: fork()
# from a threaded test binary is outside TSan's supported envelope —
# the forked transport's correctness (including crash respawn and the
# barrier-deadline hang detection) is pinned by the differential
# suites in the default and ASan builds instead.  The flat-memory suites ride along: TokenMatrix
# / SnapshotRing exercise the view kernels and snapshot ring
# (view-lifetime bugs are ASan's bread and butter, caught in the pass
# above), and AllocCount re-checks the zero-allocation steady state
# with the sanitizer allocators interposed.  OCD_JOBS=8 is forced so
# every primitive actually fans out — with the hardware default a
# small CI box would run the whole pass serially and the races TSan
# exists to catch would never execute.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target ocd_tests ocd_alloc_tests

export TSAN_OPTIONS="halt_on_error=1"
OCD_JOBS=8 ctest --preset tsan -j "$(nproc)" \
  -R "${OCD_TSAN_FILTER:-Parallel|Determinism|SweepGrid|FaultSweep|TokenMatrix|SnapshotRing|AllocCount|MaxFlow|ShardDeterminism|ShardPartition|ShardRecovery|BinStream}"

echo "Sanitizer run clean."
