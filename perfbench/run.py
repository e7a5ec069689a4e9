"""sbcheck benchmark: time to verdict on the corridor, chain and population
workloads, with a traced per-module split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corridor --seed 1 --seconds 30 --trace 0

Each task takes one freshly built input to all of its verdicts and evidence;
its result is checked against a known answer outside the timer.  Set-up is
the imports and two warm-up tasks (fresh input, task and check).  The timed
loop after it is single-process, single-threaded and closed: the next task
starts when the previous one is checked.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.  Its
``setup_s`` is the median, over nine fresh processes, of the time from
starting the process to the end of its set-up.  The nine are started one at
a time, spread over the timed loop and outside every task's timer, so that
they see the same changes in machine speed as the tasks do.
``--trace 1`` alternates untraced and traced runs of the same inputs and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WARMUP_TASKS = 2
SETUP_INPUT = -1                     # task index of the warm-up tasks' input
SETUP_SEED = 0                       # their seed, the same in every run, so
                                     # that setup_s does not vary with --seed
SETUP_PROCESSES = 9                  # fresh processes timed for setup_s
READY = "perfbench: set up"          # what a set-up process prints when done
SPAN_CLOCK_TOLERANCE = 0.01          # traced time against an outside timer
# p99 is not listed: `population` gets about 1000 samples in a run, so runs
# would report p99 or p90 by the host's speed and not compare.
TAIL_PERCENTILES = (90, 50)
TAIL_BEYOND = 10                     # samples a tail percentile needs above it
MODULES = ("cli", "model", "flatten", "kripke", "ctl", "adapt")


def import_program():
    """Import sbcheck from this checkout's source tree, or exit."""
    if not (SRC / "sbcheck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sbcheck source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbcheck
    if not Path(sbcheck.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: sbcheck imported from {sbcheck.__file__}, not {SRC}")


def load_metric_units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tail(samples: list[float]):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None, None


class Loop:
    """Runs tasks, checks them and keeps their times."""

    def __init__(self, workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.passed = 0                       # since set-up
        self.times: list[float] = []          # untraced tasks that returned
        self.traced: dict[int, float] = {}    # task id -> time, traced tasks that returned
        self.grid_pairs = 0

    def one(self, i: int, traced: bool = False, seed: int | None = None):
        """Build input ``i``, time one task on it and check the result."""
        inp = self.wl.make_input(self.seed if seed is None else seed, i)
        gc.collect()
        self.attempted += 1
        try:
            if traced:
                self.grid_pairs += self.wl.grid_pairs(inp)
                self.tracer.install()
                try:
                    # timed outside the tracer, to check the spans against
                    start = time.perf_counter()
                    with self.tracer.task(self.attempted):
                        result = self.wl.run(inp)
                    self.traced[self.attempted] = time.perf_counter() - start
                finally:
                    self.tracer.uninstall()
                    self.tracer.count_sizes()
            else:
                start = time.perf_counter()
                result = self.wl.run(inp)
                self.times.append(time.perf_counter() - start)
            problems = self.wl.check(inp, result)
        except Exception as exc:  # a crashing task is a failed task
            problems = [f"{type(exc).__name__}: {exc}"]
        if not problems:
            self.passed += 1
            return
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: task {i} failed: {'; '.join(problems)[:500]}",
                  file=sys.stderr)

    def set_up(self):
        """Warm-up tasks, which count as attempted but are not timed."""
        for _ in range(WARMUP_TASKS):
            self.one(SETUP_INPUT, seed=SETUP_SEED)
        self.times.clear()
        self.passed = 0


def make_workload(name: str, workdir: str):
    import workloads
    if name == "population":
        return workloads.Population(workdir)
    return {"corridor": workloads.Corridor, "chain": workloads.Chain}[name]()


def time_set_up(args) -> float:
    """Seconds from starting a fresh run of this script to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--set-up-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != READY:
        sys.exit(f"perfbench: set-up process exited with {proc.returncode}")
    return took


def end_to_end(loop: Loop, setup_s: float, lines: list[str]) -> dict:
    times = loop.times
    out = {
        "setup_s": setup_s,
        "verdict_s.p50": statistics.median(times),
        "tasks_per_s": loop.passed / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p, value = tail(times)
    if p is None:
        lines.append(f"verdict_s.tail omitted: {len(times)} samples are too few")
    else:
        out["verdict_s.tail"] = value
        lines.append(f"verdict_s.tail is p{p} of {len(times)} samples")
    return out


def per_layer(loop: Loop, lines: list[str]) -> tuple[dict, bool]:
    tracer = loop.tracer
    n = tracer.tasks
    own = tracer.self_times()
    incl = defaultdict(float)
    self_s = defaultdict(float)
    by_task = defaultdict(float)
    for (name, start, end, _, task), s in zip(tracer.spans, own):
        incl[name] += end - start
        self_s[name] += s
        by_task[task] += s
    # Self times sum to the root span by construction.  What can fail: a span
    # outside its parent, children that overlap (negative self time), or a
    # root span that does not cover the task as timed outside the tracer.
    outside = sum(loop.traced.values())
    gap = abs(sum(by_task[t] for t in loop.traced) - outside) / outside
    nested = all(tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
                 for _, start, end, parent, _ in tracer.spans if parent is not None)
    disjoint = min(own) >= -1e-9
    spans_ok = nested and disjoint and gap <= SPAN_CLOCK_TOLERANCE
    lines.append(f"self times sum to the outside timer's total within {gap:.1e} "
                 f"(relative); spans inside their parents: {nested}; "
                 f"children disjoint: {disjoint}")
    total = sum(tracer.task_times().values())
    c = tracer.counts
    out = {}
    for key in ("flatten.build_flat", "kripke.to_kripke", "ctl.sat_set"):
        out[key + ".calls"] = c[key + ".calls"] / n
    for key in ("model.expand_rules", "model.validate", "flatten.build_flat",
                "kripke.to_kripke", "ctl.sat_set", "adapt.weak_relation",
                "adapt.greatest_strong_relation", "adapt.strong_relation",
                "adapt.is_weak_adaptation", "adapt.is_strong_adaptation"):
        out[key + ".s"] = incl[key] / n
    for key in ("cli.run", "model.parse_model", "ctl.witness_eg",
                "ctl.counterexample_ag", "adapt.check_weak", "adapt.check_strong"):
        out[key + ".self_s"] = self_s[key] / n
    for key in ("model.expand_rules.states", "constraints.evaluate.calls",
                "model.sat.calls", "flatten.flat_successors.calls", "flatten.states",
                "flatten.transitions", "kripke.edges", "ctl.evidence.states",
                "adapt.relation_pairs"):
        out[key] = c[key] / n
    out["adapt.grid_pairs"] = loop.grid_pairs / n
    calls = c["model.sat.calls"]
    out["model.sat.hit_ratio"] = 1 - c["model.sat.misses"] / calls if calls else 0.0
    out["trace.overhead"] = (statistics.median(loop.traced.values())
                             / statistics.median(loop.times) - 1)
    split = defaultdict(float)
    for name, s in self_s.items():
        split[name.split(".")[0]] += s
    for module in MODULES + ("task",):
        out[f"split.{module}"] = split[module] / total
    lines.append("self-time split: " + ", ".join(
        f"{m} {split[m] / total:.1%}" for m in MODULES + ("task",)))
    return out, spans_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corridor", "chain", "population"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set-up-only", action="store_true",
                    help=f"set up, print {READY!r} and exit (used to time setup_s)")
    args = ap.parse_args(argv)

    import_program()
    OUT.mkdir(exist_ok=True)
    if args.set_up_only:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            Loop(make_workload(args.workload, workdir), args.seed).set_up()
            print(READY, flush=True)
        return 0

    e2e_units, layer_units = load_metric_units()
    import spans
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = make_workload(args.workload, workdir)
        loop = Loop(wl, args.seed, spans.Tracer() if args.trace else None)
        loop.set_up()

        start = time.perf_counter()
        deadline = start + args.seconds
        setup_at = [] if args.trace else [start + args.seconds * k / SETUP_PROCESSES
                                          for k in range(SETUP_PROCESSES)]
        setups = []
        i = 0
        while time.perf_counter() < deadline:
            if setup_at and time.perf_counter() >= setup_at[0]:
                setup_at.pop(0)
                setups.append(time_set_up(args))
                deadline += setups[-1]        # the loop keeps its timed length
            if args.trace:
                loop.one(i // 2, traced=i % 2 == 1)
            else:
                loop.one(i)
            i += 1

    lines = [f"{args.workload} seed {args.seed} size {wl.size}: "
             f"{loop.attempted} tasks attempted ({WARMUP_TASKS} in set-up), "
             f"{loop.failed} failed, failed_share {loop.failed / loop.attempted:g}"]
    correct = loop.failed == 0
    if not loop.times or (args.trace and not loop.traced):
        values, units = {}, {}
        correct = False
    elif args.trace:
        values, spans_ok = per_layer(loop, lines)
        correct = correct and spans_ok
        units = layer_units
        loop.tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.json"))
    else:
        values = end_to_end(loop, statistics.median(setups), lines)
        units = e2e_units
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if extra or (missing and missing != {"verdict_s.tail"}):
        sys.exit(f"perfbench: metrics {sorted(extra)} not in BENCHMARK.json, "
                 f"{sorted(missing)} not measured")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
