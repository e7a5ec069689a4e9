"""Benchmark workloads: seeded inputs, one task each, and the correctness gate.

A workload turns ``(seed, i)`` into the fresh input of task ``i`` and runs
one task on it: a system taken from its input to all of its verdicts and
evidence.  ``check`` compares the task's result with the workload's known
answer, outside the timer, and returns a list of problems (empty when the
task is correct).  Every verdict is checked against an answer that does not
come from the route that produced it: a known answer by construction, or the
other decision route.

The program is reached only through its public functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from sbcheck import adapt, cli, models
from sbcheck.constraints import BoundedInt, Signature, evaluate, parse_formula
from sbcheck.flatten import FlatState, flat_successors, state_json
from sbcheck.model import BLevel, BState, SBSystem, SLevel, STransition, load_model


def task_rng(seed: int, i: int) -> random.Random:
    """The generator of task ``i``'s input; the same seed gives the same inputs."""
    return random.Random(f"{seed}:{i}")


# ---------------------------------------------------------------------------
# Evidence as a path of the flat system


def _key(state: dict):
    phase = state["phase"]
    return state["q"], state["r"], None if phase is None else (phase["inv"], phase["target"])


def evidence_problems(sys: SBSystem, prefix: list[dict], cycle: list[dict]) -> list[str]:
    """Why a run is not a path of the flat system from its initial state.

    States are given as ``flatten.state_json`` dicts.  The run must start at
    the initial steady state and follow flat transitions; a non-empty cycle
    must close, either by a flat transition back to its first state or as
    the added self-loop of a single flat-dead state.
    """
    states = list(prefix) + list(cycle)
    f = FlatState(sys.b.initial, sys.s.initial, None)
    if not states:
        return ["empty evidence"]
    if _key(states[0]) != _key(state_json(f)):
        return [f"evidence starts at {states[0]}, not at the initial state"]
    for want in states[1:]:
        nxt = {_key(state_json(g)): g for _, g in flat_successors(sys, f)}
        f = nxt.get(_key(want))
        if f is None:
            return [f"evidence step to {want} is not a flat transition"]
    if cycle:
        succ = flat_successors(sys, f)
        dead_loop = len(cycle) == 1 and not succ
        if not dead_loop and _key(cycle[0]) not in {_key(state_json(g)) for _, g in succ}:
            return ["evidence cycle does not close"]
    return []


def verdict_problems(sys: SBSystem, name: str, verdict, expected: bool) -> list[str]:
    out = []
    if verdict.holds != expected:
        out.append(f"{name}: holds={verdict.holds}, expected {expected}")
    ev = verdict.evidence
    out += [f"{name}: {p}" for p in evidence_problems(
        sys, [state_json(f) for f in ev.prefix], [state_json(f) for f in ev.cycle])]
    return out


def grid_pairs(sys: SBSystem) -> int:
    """Pairs (q, r) with q satisfying the label of r, counted without
    touching the system's satisfaction cache."""
    return sum(bool(evaluate(sys.s.label(r), st.obs))
               for st in sys.b.states.values() for r in sys.s.states)


# ---------------------------------------------------------------------------
# Two-observable-class families: the corridor ring and the opened chain

_CORRIDOR, _GAP = 40, 10
_PATTERN = [0] * _CORRIDOR + [2] * _GAP + [1] * _CORRIDOR + [2] * _GAP


def _corridor_structure(sig: Signature) -> SLevel:
    return SLevel(
        [("r0", parse_formula("x == 0", sig)),
         ("r1", parse_formula("x == 1", sig))],
        "r0",
        [STransition("r0", parse_formula("true", sig), "r1"),
         STransition("r1", parse_formula("true", sig), "r0")],
    )


def _line_system(name: str, n: int, rng: random.Random, ring: bool) -> SBSystem:
    """Steady corridors (x = 0, x = 1) separated by adaptation gaps (x = 2).

    Each state steps to the next one and skips forward by 2, 3, 4, 6 and 8
    states and by one seeded distance in 1..9, within its own corridor or
    gap.  A ring wraps around; a line stops, so its last state is dead.
    State ids are zero-padded, so they sort in line order.
    """
    sig = Signature([("x", BoundedInt(0, 2))])
    xs = [_PATTERN[i % len(_PATTERN)] for i in range(n)]
    width = len(str(n - 1))
    ids = [f"s{i:0{width}d}" for i in range(n)]
    trans = []
    for i in range(n):
        for off in (1, 2, 3, 4, 6, 8, rng.randint(1, 9)):
            j = i + off
            if ring:
                j %= n
            elif j >= n:
                continue
            if off == 1 or xs[j] == xs[i]:
                trans.append((ids[i], ids[j]))
    b = BLevel([BState(ids[i], {"x": xs[i]}) for i in range(n)], ids[0], trans)
    return SBSystem(name, sig, b, _corridor_structure(sig))


def draw_size(rng: random.Random, size: int) -> int:
    """A task's size, uniform from a fifth of ``size`` up to ``size``.

    The machine alternates between fast and slow periods of a few seconds.
    Tasks of one size would form two narrow clusters of times, one for each
    kind of period, and the median of a run would jump from one cluster to
    the other with the share of slow periods in it.  Spread sizes spread the
    times, so the median moves smoothly with the machine's mean speed.
    """
    return rng.randint(max(1, size // 5), size)


class Corridor:
    """``check_weak`` and ``check_strong`` on the corridor ring.

    One block is 100 behaviour states; the flat system grows linearly in the
    number of blocks.  Each task draws its number of blocks from a fifth of
    ``size`` up to ``size`` (see ``draw_size``).  Known answer: weak and
    strong adaptability both hold.
    """

    size = 10  # blocks of the largest ring
    expected = (True, True)

    def make_input(self, seed: int, i: int) -> SBSystem:
        rng = task_rng(seed, i)
        blocks = draw_size(rng, self.size)
        return _line_system(f"corridor{blocks}", 100 * blocks, rng, ring=True)

    @staticmethod
    def run(sys: SBSystem):
        return adapt.check_weak(sys), adapt.check_strong(sys)

    grid_pairs = staticmethod(grid_pairs)

    def check(self, sys: SBSystem, result) -> list[str]:
        weak, strong = result
        return (verdict_problems(sys, "check_weak", weak, self.expected[0])
                + verdict_problems(sys, "check_strong", strong, self.expected[1]))


class Chain:
    """The relation routes on the corridor opened into a line ending in a
    dead state.

    The dead end makes every pair fail, one pair per sorted deletion sweep,
    which is the quadratic case of the greatest-fixpoint construction.
    Known answer: both greatest relations are empty, ``strong_relation`` has
    no result, the returned relations pass their own checks, and neither
    weak nor strong adaptability holds.  The model-checking route confirms
    both verdicts outside the timer.  Each task draws its number of states
    from a fifth of ``size`` up to ``size`` (see ``draw_size``).
    """

    size = 400  # behaviour states of the longest line
    expected = (False, False)

    def make_input(self, seed: int, i: int) -> SBSystem:
        rng = task_rng(seed, i)
        n = draw_size(rng, self.size)
        return _line_system(f"chain{n}", n, rng, ring=False)

    grid_pairs = staticmethod(grid_pairs)

    @staticmethod
    def run(sys: SBSystem):
        weak = adapt.weak_relation(sys)
        greatest = adapt.greatest_strong_relation(sys)
        strong = adapt.strong_relation(sys)
        weak_ok = adapt.is_weak_adaptation(sys, weak)
        strong_ok = adapt.is_strong_adaptation(sys, greatest)
        return weak, greatest, strong, weak_ok, strong_ok

    def check(self, sys: SBSystem, result) -> list[str]:
        weak, greatest, strong, weak_ok, strong_ok = result
        out = []
        if len(weak) or len(greatest):
            out.append(f"relations not empty: weak {len(weak)}, strong {len(greatest)} pairs")
        if not (weak_ok.ok and strong_ok.ok):
            out.append("a computed relation fails its own check")
        got = ((sys.b.initial, sys.s.initial) in weak, strong is not None)
        if got != self.expected:
            out.append(f"relation verdicts {got}, expected {self.expected}")
        out += verdict_problems(sys, "check_weak", adapt.check_weak(sys), self.expected[0])
        out += verdict_problems(sys, "check_strong", adapt.check_strong(sys), self.expected[1])
        return out


# ---------------------------------------------------------------------------
# Population of model files through the command line

# Weak and strong verdicts of the paper's case studies.
BUNDLED_VERDICTS = {"atv_s0": (True, True), "atv_s1": (True, False),
                    "bone_s0": (True, True), "bone_s1": (True, False)}

# The generated models are the test suite's acceptance population: system
# ``k`` is ``gen_random(k, *acceptance_schedule(k))`` for ``k`` below 500, the
# systems on which acceptance criterion 4 asserts that the two routes agree
# at every steady state.  Other seeds, with the same schedule or larger
# sizes, reach systems on which the weak verdicts of the two routes differ
# (see ``KNOWN_WEAK_DISAGREEMENT``), so they have no known answer to check a
# verdict against.
ACCEPTANCE_SYSTEMS = 500


def acceptance_schedule(k: int) -> tuple[int, int, float]:
    """Generator parameters of acceptance system ``k``: behaviour states,
    structure states and transition density (``tests/helpers.py``)."""
    prng = random.Random(k * 7919 + 17)
    return prng.randint(1, 12), prng.randint(1, 4), prng.uniform(0.05, 1.0)


# A generated system, outside the acceptance population, on which
# ``check --mode weak`` holds with a witness whose adaptation never ends,
# while the weak relation route rejects the initial pair.
KNOWN_WEAK_DISAGREEMENT = 3275

# One period of the population: the slot of a task decides the kind of its
# model.  Fixed slots keep the mix of a run the same whatever the seed; the
# seed decides the contents.
_PERIOD = ("bundled", "rules") + ("random",) * 7 + ("rules",) + ("random",) * 6
RULES_WIDTH = 6  # values of x per structure state in a guarded-rule model

_COMMANDS = (("check", "weak"), ("check", "strong"),
             ("relation", "weak"), ("relation", "strong"))


def rules_model(rng: random.Random, name: str, width: int) -> str:
    """A guarded-rule model: two counters, interval constraints on ``x``.

    Every update stays inside its sort by its guard, so no firing is pruned.
    """
    n_s = rng.randint(2, 3)
    hi = n_s * width - 1
    yhi = rng.randint(1, 3)
    lines = [f"system {name}", "", "observables",
             f"  x : int 0..{hi}", f"  y : int 0..{yhi}", "",
             "behaviour rules",
             f"  init x={rng.randint(0, width - 1)}, y=0"]
    for k in range(rng.randint(4, 7)):
        a = rng.randint(1, 2)
        c = rng.randint(0, yhi)
        kind = rng.randrange(4)
        if kind == 0:
            rule = f"x <= {hi - a} && y <= {c} -> x := x + {a}"
        elif kind == 1:
            rule = f"x >= {a} && y >= {c} -> x := x - {a}"
        elif kind == 2:
            rule = f"y < {yhi} && x >= {rng.randint(0, hi)} -> y := y + 1"
        else:
            rule = f"y > 0 && x <= {hi - 1} -> y := y - 1, x := x + 1"
        lines.append(f"  rule R{k}: {rule}")
    lines += ["", "structure"]
    for i in range(n_s):
        lines.append(f"  state r{i} : x >= {i * width} && x <= {i * width + width - 1}")
    lines.append("  init r0")
    for i in range(n_s):
        for j in range(n_s):
            if i != j and rng.random() < 0.7:
                inv = rng.choice(["true", f"x >= {rng.randint(0, hi)}", "y <= 1"])
                lines.append(f"  trans r{i} -> r{j} inv {inv}")
    return "\n".join(lines) + "\n"


def cli_task(path: str) -> list[tuple[int, str, str]]:
    """The four verdict commands on one model file, output captured."""
    out = []
    for command, mode in _COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run([command, path, "--mode", mode, "--format", "json"])
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


class Population:
    """Four ``cli.run`` verdict commands per model file.

    Files: the bundled case studies, the acceptance population's
    ``gen_random`` systems written with ``system_to_dsl`` in a seeded order,
    and a seeded minority of guarded-rule models.
    Known answers: the paper's verdict table for the bundled models; for the
    others, the model-checking exit code equals the relation exit code in
    each mode.  Check evidence must be a path of the flat system.
    """

    size = ACCEPTANCE_SYSTEMS  # generated systems drawn from
    bundled_verdicts = BUNDLED_VERDICTS

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._orders: dict[int, list[int]] = {}

    def generated(self, seed: int, i: int) -> int:
        """The acceptance system of task ``i``: a seeded order of all of
        them, repeated, so that every run sees nearly the same mix."""
        order = self._orders.get(seed)
        if order is None:
            order = random.Random(f"{seed}:order").sample(range(self.size), self.size)
            self._orders[seed] = order
        return order[i % self.size]

    def model_text(self, seed: int, i: int) -> tuple[str, str]:
        """Kind and text of the model of task ``i``."""
        slot = _PERIOD[i % len(_PERIOD)]
        if slot == "bundled":
            name = models.NAMES[(i // len(_PERIOD)) % len(models.NAMES)]
            return name, models.path(name).read_text(encoding="utf-8")
        if slot == "rules":
            return "rules", rules_model(task_rng(seed, i), f"rules{i}", RULES_WIDTH)
        k = self.generated(seed, i)
        return "random", cli.system_to_dsl(cli.gen_random(k, *acceptance_schedule(k)))

    def make_input(self, seed: int, i: int) -> tuple[str, str]:
        kind, text = self.model_text(seed, i)
        path = os.path.join(self.workdir, f"model{i}.sb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return kind, path

    @staticmethod
    def run(inp):
        return cli_task(inp[1])

    @staticmethod
    def grid_pairs(inp) -> int:
        return grid_pairs(load_model(inp[1]))

    def check(self, inp, result) -> list[str]:
        kind, path = inp
        try:
            out = self._check(kind, path, result)
        finally:
            os.remove(path)
        return out

    def _check(self, kind, path, result) -> list[str]:
        out = []
        holds = {}
        sys_ = load_model(path)
        for (command, mode), (code, stdout, stderr) in zip(_COMMANDS, result):
            what = f"{kind} {command} --mode {mode}"
            if code not in (0, 1) or stderr:
                out.append(f"{what}: exit {code} {stderr.strip()}")
                continue
            doc = json.loads(stdout)
            if doc["holds"] != (code == 0):
                out.append(f"{what}: exit {code} but holds={doc['holds']}")
            holds[command, mode] = doc["holds"]
            if command == "check":
                ev = doc["evidence"]
                out += [f"{what}: {p}" for p in evidence_problems(
                    sys_, ev["prefix"], ev["cycle"])]
        if out:
            return out
        for mode in ("weak", "strong"):
            if holds["check", mode] != holds["relation", mode]:
                out.append(f"{kind} {mode}: model checking says {holds['check', mode]}, "
                           f"relation route says {holds['relation', mode]}")
        if kind in self.bundled_verdicts:
            got = (holds["check", "weak"], holds["check", "strong"])
            if got != self.bundled_verdicts[kind]:
                out.append(f"{kind}: verdicts {got}, expected {self.bundled_verdicts[kind]}")
        return out
