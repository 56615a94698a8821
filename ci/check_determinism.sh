#!/usr/bin/env bash
# Determinism gate.
#
# Runs the figures binary twice over a representative target set — once with
# the serial engine and once with `--parallel-engine` (including the
# cloudscale scenario, whose quick sweep runs 2- and 4-socket machines, the
# first placements that scale the socket-parallel engine past two threads,
# the fleet scenario, whose clusters run their cells on scoped threads
# under the same flag, the churn scenario — fleet dynamics: seeded VM
# arrival/departure streams plus a scripted drain/join cycle, in both
# planner modes — the failures scenario: injected cell crashes,
# slowdowns and mid-migration aborts, whose fault plan is a pure function
# of (seed, epoch) — the service scenario: a request trace replayed
# through the kyoto-service admission controller, whose table embeds the
# telemetry record stream and a mid-trace checkpoint/restore check that
# panics on divergence — and the interactive scenario: sleep-mostly VMs
# whose Ready/Running/Blocked lifecycle and seeded wake-event sources run
# under both engine entry points) — and fails on any byte of divergence. A third
# serial run guards against run-to-run nondeterminism (uninitialised
# state, map iteration order, ...).
#
# The cycle-domain trace plane is held to the same bar: a second pass runs
# a traced target set (fig9, fleet, service, interactive — the last one
# covering vm.block/vm.wake instants and blocked-cycle counters) with
# `--trace-out`, byte-
# comparing the trace files across serial, `--parallel-engine` and a serial
# rerun — trace timestamps are simulated cycles, so any drift is a real
# determinism bug, not clock noise. One extra run exports Chrome JSON and
# validates it (the figures binary validates before writing; `python3 -m
# json.tool` re-checks externally when python3 is on PATH).
#
# `--no-timing` suppresses the wall-clock lines, and every run passes
# `--jobs 2` because the report's header names the worker count, so the
# whole report is byte-comparable on any host. Outputs land in
# $DETERMINISM_OUT (default: target/determinism) so CI can upload them as
# artifacts — trace files included.
#
# Runs that agree with each other can still all be wrong, so the gate ends
# by comparing the SHA-256 of serial.txt, trace-serial.txt and
# trace-service.json with ci/determinism_digests.txt and names each file
# that differs. A change that alters simulated results on purpose
# regenerates that file from its outputs:
#   (cd target/determinism && sha256sum serial.txt trace-serial.txt trace-service.json)
#
# Usage:
#   ci/check_determinism.sh                 # builds figures if needed
#   FIGURES_BIN=target/release/figures ci/check_determinism.sh
set -euo pipefail

bin="${FIGURES_BIN:-target/release/figures}"
out="${DETERMINISM_OUT:-target/determinism}"
digests="ci/determinism_digests.txt"
targets=(fig1 fig9 cloudscale fleet churn failures service interactive)

if [ ! -x "$bin" ]; then
    cargo build --release -p kyoto-bench --bin figures
fi
mkdir -p "$out"
figures=("$bin" --quick --no-timing --jobs 2)

echo "Determinism gate over: ${targets[*]} (quick fidelity)"
"${figures[@]}" "${targets[@]}" > "$out/serial.txt"
"${figures[@]}" --parallel-engine "${targets[@]}" > "$out/parallel-engine.txt"
"${figures[@]}" "${targets[@]}" > "$out/serial-rerun.txt"

if ! diff -u "$out/serial.txt" "$out/parallel-engine.txt"; then
    echo "determinism gate FAILED: --parallel-engine changed figure bytes" >&2
    exit 1
fi
if ! diff -u "$out/serial.txt" "$out/serial-rerun.txt"; then
    echo "determinism gate FAILED: two serial runs disagree" >&2
    exit 1
fi

trace_targets=(fig9 fleet service interactive)
echo "Trace determinism gate over: ${trace_targets[*]} (quick fidelity)"
"${figures[@]}" "${trace_targets[@]}" --trace-out "$out/trace-serial.txt" > /dev/null
"${figures[@]}" --parallel-engine "${trace_targets[@]}" --trace-out "$out/trace-parallel-engine.txt" > /dev/null
"${figures[@]}" "${trace_targets[@]}" --trace-out "$out/trace-serial-rerun.txt" > /dev/null

if ! diff -u "$out/trace-serial.txt" "$out/trace-parallel-engine.txt"; then
    echo "determinism gate FAILED: --parallel-engine changed trace bytes" >&2
    exit 1
fi
if ! diff -u "$out/trace-serial.txt" "$out/trace-serial-rerun.txt"; then
    echo "determinism gate FAILED: two serial trace runs disagree" >&2
    exit 1
fi

# Perfetto export: the binary validates the JSON before writing (it aborts
# on malformed output); re-check with python when available.
"${figures[@]}" service --trace-out "$out/trace-service.json" > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$out/trace-service.json" > /dev/null
fi

failed=0
while read -r expected name; do
    case "$expected" in
        "" | "#"*) continue ;;
    esac
    actual=$(sha256sum "$out/$name" | cut -d' ' -f1)
    if [ "$actual" != "$expected" ]; then
        echo "determinism gate FAILED: $name differs from its digest in $digests (sha256 $actual, committed $expected)" >&2
        failed=1
    fi
done < "$digests"
if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "determinism gate OK (outputs in $out)"
