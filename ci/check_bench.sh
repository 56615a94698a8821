#!/usr/bin/env bash
# Bench-regression smoke gate.
#
# Parses a BENCH_substrate.json (freshly produced by the substrate_baseline
# binary in CI, or the committed one locally) and fails when:
#
#   1. the optimized engine's speedup over the frozen seed hot path drops
#      below a tolerant floor (committed baseline ~1.85-2x; 1.5x leaves room
#      for runner noise while still catching a real regression), or
#   2. the parallel-execution speedups — cluster epochs over serial epochs
#      (`cluster_epoch_parallel_vs_serial`), the same control loop under
#      churn (`fleet_churn_parallel_vs_serial`) and the socket-parallel
#      engine on cloud machines (`parallel_vs_serial_speedup_cloud`) — drop
#      below their floor, *provided the host can parallelise at all*, or
#
#   3. disabled cycle-domain tracing costs measurable throughput
#      (`trace_overhead.off_vs_untraced`): the trace plane branches out on
#      an enum when off, so the trace-off batched rate must stay at the
#      untraced batched rate (~1.0 up to wall-clock noise), or
#
#   4. installing a zero-rate fault plan costs measurable throughput
#      (`fault_machinery_overhead.zero_rate_plan_vs_no_plan`): a plan that
#      schedules nothing must be free, so the epoch-rate ratio should sit
#      near 1.0. The floor is tolerant (wall-clock noise on a short run)
#      but catches the fault boundary growing real per-epoch cost.
#
# When the producing host had a single hardware thread
# (`parallel_bench_threads == 1`), parallel speedups are structurally ~1.0x
# and assertion 2 would always fail — or, worse, a lenient floor would always
# pass and mask a real regression on capable hosts. So on single-thread
# hosts the parallel assertions are SKIPPED with a loud warning rather than
# silently passed.
#
# Usage:
#   ci/check_bench.sh [path/to/BENCH_substrate.json]
#   BENCH_MIN_SPEEDUP=1.7 ci/check_bench.sh       # override the serial floor
#   PARALLEL_MIN_SPEEDUP=1.3 ci/check_bench.sh    # override the parallel floor
#   KYOTO_MIN_FAULT_OVERHEAD_RATIO=0.9 ci/check_bench.sh  # override the fault floor
#   KYOTO_MIN_TRACE_OFF_RATIO=0.9 ci/check_bench.sh       # override the trace floor
set -euo pipefail

file="${1:-BENCH_substrate.json}"
floor="${BENCH_MIN_SPEEDUP:-1.5}"
parallel_floor="${PARALLEL_MIN_SPEEDUP:-1.1}"
fault_floor="${KYOTO_MIN_FAULT_OVERHEAD_RATIO:-0.8}"
trace_floor="${KYOTO_MIN_TRACE_OFF_RATIO:-0.95}"

if [ ! -f "$file" ]; then
    echo "error: $file not found (run: cargo run --release -p kyoto-bench --bin substrate_baseline)" >&2
    exit 2
fi

echo "Checking optimized-vs-seed run_slots speedups in $file (floor: ${floor}x)"
awk -v floor="$floor" '
    /"optimized_vs_seed_speedup"/ { in_block = 1; next }
    in_block && /}/ { in_block = 0 }
    in_block && /_slots/ {
        line = $0
        gsub(/[",]/, "", line)
        split(line, kv, ":")
        gsub(/^[ \t]+|[ \t]+$/, "", kv[1])
        value = kv[2] + 0
        seen += 1
        printf "  %s: %.2fx\n", kv[1], value
        if (value < floor) {
            printf "  ^^^ below the %.2fx floor\n", floor
            bad = 1
        }
    }
    END {
        if (seen == 0) {
            print "error: no optimized_vs_seed_speedup entries found" > "/dev/stderr"
            exit 2
        }
        exit bad
    }
' "$file"

threads="$(awk '/"parallel_bench_threads"/ { line = $0; gsub(/[^0-9]/, "", line); print line; exit }' "$file")"
if [ -z "$threads" ]; then
    echo "error: no parallel_bench_threads entry found in $file" >&2
    exit 2
fi

if [ "$threads" -le 1 ]; then
    echo "" >&2
    echo "##############################################################################" >&2
    echo "# WARNING: parallel-speedup assertions SKIPPED                               #" >&2
    echo "# The bench host had a single hardware thread (parallel_bench_threads == 1), #" >&2
    echo "# so parallel speedups are structurally ~1.0x and assert nothing. Re-run     #" >&2
    echo "# substrate_baseline on a multi-core host to gate parallel performance.      #" >&2
    echo "##############################################################################" >&2
    echo "" >&2
else
    echo "Checking parallel speedups in $file (threads: ${threads}, floor: ${parallel_floor}x)"
    awk -v floor="$parallel_floor" '
        /"parallel_vs_serial_speedup_cloud"/ || /"cluster_epoch_parallel_vs_serial"/ || /"fleet_churn_parallel_vs_serial"/ { in_block = 1; next }
        in_block && /}/ { in_block = 0 }
        in_block && (/_sockets/ || /_cells/) {
            line = $0
            gsub(/[",]/, "", line)
            split(line, kv, ":")
            gsub(/^[ \t]+|[ \t]+$/, "", kv[1])
            value = kv[2] + 0
            seen += 1
            printf "  %s: %.2fx\n", kv[1], value
            if (value < floor) {
                printf "  ^^^ below the %.2fx floor\n", floor
                bad = 1
            }
        }
        END {
            if (seen == 0) {
                print "error: no parallel speedup entries found" > "/dev/stderr"
                exit 2
            }
            exit bad
        }
    ' "$file"
fi

echo "Checking trace-off overhead in $file (floor: ${trace_floor}x)"
awk -v floor="$trace_floor" '
    /"trace_overhead"/ { in_block = 1; next }
    in_block && /}/ { in_block = 0 }
    in_block && /off_vs_untraced/ {
        line = $0
        gsub(/[",]/, "", line)
        split(line, kv, ":")
        value = kv[2] + 0
        seen += 1
        printf "  off_vs_untraced: %.2fx\n", value
        if (value < floor) {
            printf "  ^^^ below the %.2fx floor: disabled tracing must be ~free\n", floor
            bad = 1
        }
    }
    END {
        if (seen == 0) {
            print "error: no trace_overhead entry found" > "/dev/stderr"
            exit 2
        }
        exit bad
    }
' "$file"

echo "Checking fault-machinery overhead in $file (floor: ${fault_floor}x)"
awk -v floor="$fault_floor" '
    /"fault_machinery_overhead"/ { in_block = 1; next }
    in_block && /}/ { in_block = 0 }
    in_block && /zero_rate_plan_vs_no_plan/ {
        line = $0
        gsub(/[",]/, "", line)
        split(line, kv, ":")
        value = kv[2] + 0
        seen += 1
        printf "  zero_rate_plan_vs_no_plan: %.2fx\n", value
        if (value < floor) {
            printf "  ^^^ below the %.2fx floor: a zero-rate fault plan must be ~free\n", floor
            bad = 1
        }
    }
    END {
        if (seen == 0) {
            print "error: no fault_machinery_overhead entry found" > "/dev/stderr"
            exit 2
        }
        exit bad
    }
' "$file"
echo "bench gate OK"
