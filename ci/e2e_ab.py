#!/usr/bin/env python3
"""A/B runs of the end-to-end benchmark: a parent binary against a change.

    python3 ci/e2e_ab.py PARENT_BIN CHANGE_BIN --workload W
        [--pairs 10] [--seed 42] [--claim METRIC]
    python3 ci/e2e_ab.py --selftest

PARENT_BIN and CHANGE_BIN are e2ebench executables built from the two
commits. Each pair runs both once with the same arguments, for the
run_seconds of BENCHMARK.json, and the side that runs first alternates
from pair to pair, so a drift in host speed lands on both sides. Each
run's last JSON line is its result.

For every end-to-end metric of BENCHMARK.json (name, direction and bound
are read from it, never written), the script prints each side's median and
quartiles, the median of the per-pair ratios (change / parent) and the
pairs the change won (ties count for neither side), then one verdict:

  claim met      the --claim metric: the change won at least 9 of 10
                 pairs and its median is better than the parent's by more
                 than the parent's interquartile range;
  claim not met  the --claim metric, when that rule fails;
  regression     the change's median is worse than the parent's by more
                 than the metric's bound;
  unresolved     the parent's interquartile range exceeds the bound, so
                 the runs cannot tell a change of that size, unless every
                 change run beats every parent run;
  within bound   none of the above.

A regression whose every change run is worse than every parent run stands
even where the spread is wide.

The output ends with one JSON line that holds the same table: the
workload, seed, pairs, run_seconds, the host's thread count and, per
metric, each side's median, quartiles and interquartile range, the median
per-pair ratio, the wins and the verdict. BENCH_e2e.json (schema
kyoto-e2e-bench/v1) keeps such lines as the end-to-end trajectory: one
entry per change, whose "workloads" object holds each workload's line
as printed.

Exit status: 0, or 1 when a run reports "correct": false or has no result
line, when the change fails a larger share of its attempted operations,
or when a verdict is "regression" or "claim not met"; 2 on bad arguments.
--selftest checks the verdict rules on canned numbers and times nothing.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# A claim needs this share of all pairs won.
CLAIM_WIN_SHARE = 0.9


def benchmark(path=BENCHMARK):
    """BENCHMARK.json: its run length (`run_seconds`) and its end-to-end
    metrics (`end_to_end`: name, unit, better, bound)."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def last_json_line(text):
    """The last line of `text` that is a JSON object, or None."""
    for line in reversed(text.splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def run_once(binary, workload, seconds, seed):
    """One benchmark run; a run without a result line counts as incorrect."""
    command = [binary, "--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    result = last_json_line(done.stdout)
    if result is None:
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return result


def quartiles(values):
    """(q1, median, q3), exclusive method; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, median, q3


def beats(metric, a, b):
    """Whether value `a` is strictly better than `b` for `metric`."""
    return a > b if metric["better"] == "higher" else a < b


def worse_by_bound(metric, change, parent):
    """Whether `change` is worse than `parent` by more than the bound."""
    if metric["better"] == "higher":
        return change < parent * (1.0 - metric["bound"])
    return change > parent * (1.0 + metric["bound"])


def verdict(metric, parent, change, claim):
    """The verdict for one metric over paired runs (lists in pair order)."""
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    wins = sum(beats(metric, c, p) for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    if claim:
        won = wins >= CLAIM_WIN_SHARE * len(parent)
        gap = abs(c_median - p_median) > iqr and beats(metric, c_median, p_median)
        return "claim met" if won and gap else "claim not met"
    all_better = all(beats(metric, c, p) for c in change for p in parent)
    all_worse = all(beats(metric, p, c) for c in change for p in parent)
    spread = iqr / abs(p_median) if p_median else float("inf")
    regressed = worse_by_bound(metric, c_median, p_median)
    if regressed and (spread <= metric["bound"] or all_worse):
        return "regression"
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "within bound"


def failed_share(runs):
    attempted = sum(run.get("attempted", 0) for run in runs)
    failed = sum(run.get("failed", 0) for run in runs)
    return failed / attempted if attempted else 0.0


def values(runs, name):
    return [float(run.get("metrics", {}).get(name, {}).get("value", float("nan"))) for run in runs]


def report(metrics, parent_runs, change_runs, claim, header=None):
    """Prints the comparison table, then the same table as one JSON line
    that also holds `header`'s keys; returns whether every check passed."""
    ok = True
    summary = dict(header or {})
    summary["metrics"] = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        incorrect = sum(not run.get("correct", False) for run in runs)
        if incorrect:
            print(f"FAILED: {incorrect} {side} run(s) not correct")
            ok = False
    shares = failed_share(parent_runs), failed_share(change_runs)
    summary["failed_share"] = {"parent": shares[0], "change": shares[1]}
    print(f"failed share: parent {shares[0]:.6f}, change {shares[1]:.6f}")
    if shares[1] > shares[0]:
        print("FAILED: the change fails a larger share of its operations")
        ok = False
    print(f"{'metric':<12} {'unit':<9} {'parent median [q1-q3]':<30} "
          f"{'change median [q1-q3]':<30} {'ratio':>7} {'wins':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent, change = values(parent_runs, name), values(change_runs, name)
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        wins = sum(beats(metric, c, p) for p, c in zip(parent, change))
        result = verdict(metric, parent, change, name == claim)
        if result in ("regression", "claim not met"):
            ok = False
        parent_column = f"{p_median:.4g} [{p_q1:.4g}-{p_q3:.4g}]"
        change_column = f"{c_median:.4g} [{c_q1:.4g}-{c_q3:.4g}]"
        spread = (p_q3 - p_q1) / abs(p_median) if p_median else float("inf")
        print(f"{name:<12} {metric['unit']:<9} {parent_column:<30} {change_column:<30} "
              f"{statistics.median(ratios):>7.3f} {wins:>3}/{len(parent):<2}  {result} "
              f"(bound {metric['bound']}, parent spread {spread:.3f})")
        summary["metrics"][name] = {
            "unit": metric["unit"],
            "parent": {"median": p_median, "q1": p_q1, "q3": p_q3, "iqr": p_q3 - p_q1},
            "change": {"median": c_median, "q1": c_q1, "q3": c_q3, "iqr": c_q3 - c_q1},
            "ratio_median": statistics.median(ratios),
            "wins": wins,
            "pairs": len(parent),
            "verdict": result,
        }
    summary["ok"] = ok
    print(json.dumps(summary, sort_keys=True))
    return ok


def selftest():
    """Checks the verdict rules on canned numbers."""
    higher = {"name": "sim_mips", "unit": "Minstr/s", "better": "higher", "bound": 0.25}
    lower = {"name": "step_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
    parent = [100.0, 98.0, 102.0, 101.0, 99.0, 100.5, 97.5, 103.0, 100.0, 99.5]
    cases = [
        # A 4x gain on every pair meets the claim.
        (higher, parent, [4 * v for v in parent], True, "claim met"),
        # Eight of ten pairs are not nine tenths.
        (higher, parent, [4 * v for v in parent[:8]] + [v / 2 for v in parent[8:]], True,
         "claim not met"),
        # Every pair won, but by less than the parent's interquartile range.
        (higher, parent, [v + 0.1 for v in parent], True, "claim not met"),
        # A lower-is-better claim is met by falling.
        (lower, parent, [v / 4 for v in parent], True, "claim met"),
        # A gain that goes the wrong way is no claim.
        (lower, parent, [4 * v for v in parent], True, "claim not met"),
        # Within the bound either way.
        (higher, parent, [0.9 * v for v in parent], False, "within bound"),
        (lower, parent, [1.1 * v for v in parent], False, "within bound"),
        # Worse by more than the bound, with a tight spread.
        (higher, parent, [0.7 * v for v in parent], False, "regression"),
        (lower, parent, [1.3 * v for v in parent], False, "regression"),
    ]
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    cases += [
        # A spread wider than the bound cannot show "unchanged".
        (higher, wide, list(wide), False, "unresolved"),
        # ... unless every change run beats every parent run.
        (higher, wide, [v + 200.0 for v in wide], False, "within bound"),
        # ... and a change worse on every run is a regression all the same.
        (higher, wide, [v / 10.0 for v in wide], False, "regression"),
    ]
    for number, (metric, p, c, claim, expected) in enumerate(cases):
        got = verdict(metric, p, c, claim)
        assert got == expected, f"case {number}: {got!r}, expected {expected!r}"

    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    assert last_json_line('table\n{"correct": true}\nspans\n') == {"correct": True}
    assert last_json_line("no result\n") is None

    def run(correct, failed, value):
        return {"correct": correct, "attempted": 1000, "failed": failed,
                "metrics": {"sim_mips": {"value": value, "unit": "Minstr/s"}}}

    good = [run(True, 0, v) for v in parent]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert report([higher], good, [run(True, 0, 4 * v) for v in parent], "sim_mips",
                      {"workload": "canned", "pairs": len(parent)})
    # The output ends with its JSON line, which repeats the table.
    line = json.loads(out.getvalue().splitlines()[-1])
    assert line["workload"] == "canned" and line["ok"] is True, line
    entry = line["metrics"]["sim_mips"]
    assert entry["verdict"] == "claim met" and entry["wins"] == len(parent), entry
    assert entry["parent"]["median"] == quartiles(parent)[1], entry
    assert entry["change"]["median"] == 4 * quartiles(parent)[1], entry
    q1, _, q3 = quartiles(parent)
    assert entry["parent"]["iqr"] == q3 - q1, entry
    assert line["failed_share"] == {"parent": 0.0, "change": 0.0}, line
    with contextlib.redirect_stdout(io.StringIO()):
        # A higher failed share, an incorrect run, a regression: exit 1.
        assert not report([higher], good, [run(True, 1, 4 * v) for v in parent], "sim_mips")
        assert not report([higher], good, [run(False, 0, 4 * v) for v in parent], None)
        assert not report([higher], good, [run(True, 0, v / 2) for v in parent], None)
        assert report([higher], good, [run(True, 0, v) for v in parent], None)
    # What this script reads is all there: a run length, and metrics each
    # with a direction and a bound.
    declared = benchmark()
    assert isinstance(declared["run_seconds"], int) and declared["run_seconds"] > 0
    for metric in declared["end_to_end"]:
        assert metric["better"] in ("higher", "lower"), metric
        assert metric["bound"] > 0, metric
    print(f"e2e_ab selftest OK ({len(cases)} verdict cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="e2ebench binary of the parent commit")
    parser.add_argument("change", nargs="?", help="e2ebench binary of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.workload) or args.pairs < 1:
        parser.print_usage(sys.stderr)
        return 2
    declared = benchmark()
    metrics, seconds = declared["end_to_end"], declared["run_seconds"]
    if args.claim is not None and args.claim not in [m["name"] for m in metrics]:
        sys.stderr.write(f"--claim {args.claim}: not an end-to-end metric of {BENCHMARK}\n")
        return 2
    parent_runs, change_runs = [], []
    for pair in range(args.pairs):
        sides = [("parent", args.parent, parent_runs), ("change", args.change, change_runs)]
        if pair % 2:
            sides.reverse()
        for side, binary, runs in sides:
            result = run_once(binary, args.workload, seconds, args.seed)
            runs.append(result)
            line = " ".join(f"{name}={entry['value']:.6g}"
                            for name, entry in result.get("metrics", {}).items())
            print(f"pair {pair + 1}/{args.pairs} {side}: correct={result.get('correct')} {line}",
                  flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s")
    header = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "run_seconds": seconds, "host_threads": os.cpu_count()}
    return 0 if report(metrics, parent_runs, change_runs, args.claim, header) else 1


if __name__ == "__main__":
    sys.exit(main())
