"""Alternating A/B runs of the benchmark in two checkouts.

Runs ``perfbench/run.py`` in the checkouts PARENT and CHANGE, one run at a
time, each in its own checkout.  Round ``k`` runs one pair per workload
given, the workloads in the order given; each of its pairs runs the parent
first when ``k`` is even and the change first when it is odd, so that a
slow spell of the host does not always fall on the same side.  Prints each
pair's metrics, then one table per workload: per metric the median of each
side, the parent's quartiles, the change's median against the parent's, and
the pairs the change won as k/N (ties count for neither).  A gain is shown
when the change wins at least nine tenths of the pairs and the medians
differ by more than the distance between the parent's quartiles; the last
column says whether both hold.  Each metric's direction is read from the
parent's ``BENCHMARK.json``.

Usage, with two checkouts of the repository:

    python tools/ab_pairs.py PARENT CHANGE --workload chain --workload corridor \
        --pairs 10 --seconds 30

``--workload`` may be given more than once; ``--pairs`` counts the pairs of
each workload.  ``--seed`` (default 1) is passed to every run; ``--trace
1`` compares the per-layer metrics of traced runs instead of the end-to-end
ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, args) -> dict:
    """The metrics of one benchmark run of ``workload`` in ``checkout``, or exit."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"ab_pairs: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        sys.exit(f"ab_pairs: a run in {checkout} was not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def directions(checkout: Path) -> dict[str, str]:
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(name: str, parent: list[float], change: list[float], better: str) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else (med_p,) * 3)
    ratio = f"{med_c / med_p:.3f}" if med_p else "-"
    shown = wins >= 0.9 * len(parent) and sign * (med_c - med_p) > q3 - q1
    return (f"{name:34} {med_p:12.6g} {med_c:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{ratio:>7} {wins:>3}/{len(parent):<3} {'yes' if shown else 'no'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = list(dict.fromkeys(args.workload))
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                runs[w][side].append(run_once(getattr(args, side), w, args))
            print(f"{w} pair {k} ({order[0]} first): " + ", ".join(
                f"{name} {runs[w]['parent'][-1][name]:.6g} -> {value:.6g}"
                for name, value in runs[w]["change"][-1].items()), flush=True)

    better = directions(args.parent)
    for w in workloads:
        print(f"\n{w}, {args.pairs} pairs of {args.seconds:g}-s runs, seed {args.seed}")
        print(f"{'metric':34} {'parent p50':>12} {'change p50':>12} {'parent q1':>12} "
              f"{'parent q3':>12} {'ratio':>7} {'wins':>7} gain")
        for name in runs[w]["parent"][0]:
            if all(name in r for side in SIDES for r in runs[w][side]):
                print(summary(name, [r[name] for r in runs[w]["parent"]],
                              [r[name] for r in runs[w]["change"]],
                              better.get(name, "lower")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
