"""Digest of the command-line output on a fixed population of models.

Writes the test suite's 500 acceptance-population systems as model files
into DIR, then runs eight commands of ``sbcheck.cli.run`` on them and on the
four bundled models: ``check`` and ``relation`` in both modes with
``--format json``, ``flatten --format json``, ``export --stage kripke
--format json``, and ``verify-relation`` in both modes on the model's full
satisfaction grid (every pair whose behaviour state satisfies the label of
its structure state), written into DIR as a relation file; the grid breaks
clauses (i), (ii) and (iii) of both modes, so their messages enter the
digest.  Then it writes the corridor rings of 1, 2 and 3 blocks from the
test suite as model files and runs ``check`` in both modes with ``--format
json`` on them: their witnesses close cycles that go once around the ring.
Prints one line per run (file, command, exit code, sha256 of stdout) and,
on stderr, two combined sha256 digests: ``TOTAL`` over the eight commands
on the population, and ``TOTAL+corridor`` over every run.  Two checkouts
that print the same combined digests produce the same output on these
models.

Last, it writes 2000 seeded single-line mutants of the bundled models and
of acceptance systems 0-199 into DIR: a word deleted, one token of a fixed
junk list inserted before a word or appended to a line, or a line swapped
with another or duplicated.  It runs ``flatten --format json`` on each and
prints one line per mutant (number, source, mutation, exit code, sha256 of
stdout followed by stderr), and on stderr the combined digest ``MUTANTS``,
which pins the diagnostics of the model parser as well as its verdicts.

Then it runs usage errors (no command, an unknown command or option, a
missing or invalid argument) and ``--help`` of the program and of every
subcommand, the whole list twice in one process, with help wrapped at 80
columns.  It prints one line per run (round, arguments, exit code, sha256
of stdout followed by stderr), and on stderr the combined digest ``USAGE``,
which pins the command-line parser's output on repeated in-process calls.

Then it runs ``export --format dot`` at ``--stage flat`` and ``--stage
kripke`` on the bundled models and the acceptance systems.  It prints one
line per run, like the population's, and on stderr the combined digest
``DOT``, which pins both Graphviz renderers.

Last, it runs the text outputs that print decoded states on the same
models: ``flatten`` (its dead-state list), ``check`` and ``relation`` in
both modes, and ``ctl --ctl 'EG steady' --at <q0>,<r0>`` at the model's
initial pair.  It prints one line per run, like the population's, and on
stderr the combined digest ``TEXT``.

Then it runs ``relation`` and ``verify-relation`` (on the grid relation
file) in both modes at ``--max-states`` 1, 2, 4, 8, 16, 32 and 64 on the
bundled models and acceptance systems 0-99.  It prints one line per run
(file, command, exit code, sha256 of stdout followed by stderr), and on
stderr the combined digest ``BUDGET``, which pins the budget diagnostics.

Then it runs ``ctl --ctl F`` on the bundled models and the acceptance
systems for each formula F of ``CTL_FORMULAS``: the three atoms, the next
and until operators, ``EG !steady`` and both verdict formulas.  It prints
one line per run (file, command, exit code, sha256 of stdout followed by
stderr), and on stderr the combined digest ``CTL``, which pins the CTL
labelling of every atom and operator at the initial state.

Then it runs the library's ``check_weak`` then ``check_strong`` on one
freshly loaded system, and the reverse order on another, for the bundled
models, the acceptance systems and the corridor rings.  It prints one line
per run (file, order, sha256 of the verdicts and the ``state_json`` of
their evidence), and on stderr the combined digest ``MEMO``.  Each command
above loads a fresh system, so only this part sees what one verdict leaves
memoised for the next.

Last, it runs the five relation queries of the library, ``weak_relation``,
``greatest_strong_relation``, ``strong_relation``, then
``is_weak_adaptation`` and ``is_strong_adaptation`` of the satisfaction
grid, on one freshly loaded system, and in the reverse order on another,
for the same models.  It prints one line per run (file, order, sha256 of
the returned relations and the checks' violation messages), and on stderr
the combined digest ``RELATIONS``, which sees what one relation query
leaves memoised for the next.  Its population adds, written into DIR as
model files, the test suite's fan, spread fan, ladder and cascade ladder
systems of 1, 2, 5 and 17, its guarded-rule systems 0-49, and the corridors
of 1, 2 and 3 blocks opened into lines that end in a dead state, on which
every pair of both greatest relations is deleted, as on the cascade ladders,
whose entering pair leaves only after each end of its phase has.

Usage, from the root of a checkout:

    PYTHONPATH=src:tests python tools/output_digest.py DIR > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys

from helpers import (
    acceptance_schedule,
    cascade_ladder_system,
    corridor_system,
    fan_system,
    ladder_system,
    opened_corridor_system,
    rules_system,
    spread_fan_system,
)

from sbcheck import adapt, cli, models
from sbcheck.adapt import AdaptRelation, RelationCheck, check_strong, check_weak
from sbcheck.flatten import state_json
from sbcheck.model import load_model

COMMANDS = (
    ("check", "--mode", "weak", "--format", "json"),
    ("check", "--mode", "strong", "--format", "json"),
    ("relation", "--mode", "weak", "--format", "json"),
    ("relation", "--mode", "strong", "--format", "json"),
    ("flatten", "--format", "json"),
    ("export", "--stage", "kripke", "--format", "json"),
    ("verify-relation", "--relation", "{grid}", "--mode", "weak"),
    ("verify-relation", "--relation", "{grid}", "--mode", "strong"),
)
N_SYSTEMS = 500
CORRIDOR_COMMANDS = COMMANDS[:2]
DOT_COMMANDS = (
    ("export", "--stage", "flat", "--format", "dot"),
    ("export", "--stage", "kripke", "--format", "dot"),
)
TEXT_COMMANDS = (
    ("flatten",),
    ("check", "--mode", "weak"),
    ("check", "--mode", "strong"),
    ("relation", "--mode", "weak"),
    ("relation", "--mode", "strong"),
    ("ctl", "--ctl", "EG steady", "--at", "{initial}"),
)
BUDGET_COMMANDS = (
    ("relation", "--mode", "weak"),
    ("relation", "--mode", "strong"),
    ("verify-relation", "--relation", "{grid}", "--mode", "weak"),
    ("verify-relation", "--relation", "{grid}", "--mode", "strong"),
)
BUDGETS = (1, 2, 4, 8, 16, 32, 64)
CTL_FORMULAS = (
    "adapting", "steady", "progress", "EX adapting", "AX steady",
    "E[progress U steady]", "A[progress U steady]", "EG !steady",
    "EG((adapting => EF steady) && progress)",
    "AG((adapting => AF steady) && progress)",
)
MEMO_ORDERS = ((("weak", check_weak), ("strong", check_strong)),
               (("strong", check_strong), ("weak", check_weak)))
RELATION_QUERIES = ("weak_relation", "greatest_strong_relation", "strong_relation",
                    "is_weak_adaptation", "is_strong_adaptation")
BUDGET_SYSTEMS = 100  # acceptance systems run, after the bundled models
CORRIDOR_BLOCKS = (1, 2, 3)
FAN_SIZES = (1, 2, 5, 17)
RULES_SYSTEMS = 50
N_MUTANTS = 2000
MUTANT_SOURCES = 200  # acceptance systems mutated, after the bundled models
MUTANT_SEED = 20141
MUTATIONS = ("delete", "insert", "append", "swap", "duplicate")
# each subcommand's required arguments; nothing reads these files, since
# every case below fails or stops while its arguments are parsed
REQUIRED = {
    "validate": ["model.sb"],
    "flatten": ["model.sb"],
    "check": ["model.sb", "--mode", "weak"],
    "relation": ["model.sb", "--mode", "weak"],
    "verify-relation": ["model.sb", "--relation", "pairs.json", "--mode", "weak"],
    "ctl": ["model.sb", "--ctl", "steady"],
    "export": ["model.sb", "--format", "dot"],
    "gen": ["--seed", "1", "-o", "out.sb"],
}
USAGE_CASES = (
    [], ["-h"], ["--help"], ["bogus"], ["--bogus"],
    *([sub, "--help"] for sub in REQUIRED),
    *([sub] for sub in REQUIRED),
    *([sub, *args, "--bogus"] for sub, args in REQUIRED.items()),
    ["check", "model.sb"],
    ["check", "model.sb", "--mode", "sideways"],
    ["relation", "model.sb", "--mode"],
    ["flatten", "model.sb", "--format", "xml"],
    ["export", "model.sb", "--format", "png"],
    ["verify-relation", "model.sb", "--mode", "weak"],
    ["ctl", "model.sb"],
    ["gen", "--seed", "x", "-o", "out.sb"],
    ["gen", "--seed", "1", "--density", "dense", "-o", "out.sb"],
)
USAGE_ROUNDS = 2
USAGE_COLUMNS = "80"
JUNK = ("junk", "x", "0", "-1", "true", "state", "init", "trans", "inv",
        "{", "}", ",", ":", "->", "==", "&&", "(", "#", ".", "\u00b2", "\u00a0")


def write_model(out_dir: str, name: str, sys_) -> str:
    path = os.path.join(out_dir, f"{name}.sb")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.system_to_dsl(sys_))
    return path


def model_files(out_dir: str) -> list[str]:
    """The bundled models, then the acceptance systems written to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    files = [str(models.path(n)) for n in models.NAMES]
    files += [write_model(out_dir, f"acc{k}", cli.gen_random(k, *acceptance_schedule(k)))
              for k in range(N_SYSTEMS)]
    return files


def grid_pairs(path: str) -> list[list[str]]:
    """The satisfaction grid of the model at ``path``, in sorted order."""
    sys_ = load_model(path)
    return [[q, r] for q in sorted(sys_.b.states) for r in sorted(sys_.s.states)
            if sys_.sat(q, sys_.s.label(r))]


def grid_file(out_dir: str, path: str) -> str:
    """Write the satisfaction grid of the model at ``path`` as a relation file."""
    grid = os.path.join(out_dir, os.path.basename(path) + ".grid.json")
    with open(grid, "w", encoding="utf-8") as fh:
        json.dump({"pairs": grid_pairs(path)}, fh)
    return grid


def capture(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_command(path: str, command: tuple[str, ...], args: list[str],
                with_err: bool = False) -> bytes:
    """Run one command on ``path``, print its line and return its digest
    entry: of stdout, followed by stderr when ``with_err`` is set."""
    code, out, err = capture([command[0], path, *args])
    digest = hashlib.sha256((out + err if with_err else out).encode()).hexdigest()
    print(os.path.basename(path), " ".join(command), code, digest)
    return f"{code} {digest}".encode()


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of a model text, and its description."""
    lines = text.splitlines()
    worded = [k for k, line in enumerate(lines) if line.strip()]
    k = rng.choice(worded)
    start, end = rng.choice([m.span() for m in re.finditer(r"\S+", lines[k])])
    kind = rng.choice(MUTATIONS)
    junk = rng.choice(JUNK)
    if kind == "delete":
        lines[k] = lines[k][:start] + lines[k][end:]
        what = f"delete the word at line {k + 1} column {start + 1}"
    elif kind == "insert":
        lines[k] = f"{lines[k][:start]}{junk} {lines[k][start:]}"
        what = f"insert {junk!r} at line {k + 1} column {start + 1}"
    elif kind == "append":
        lines[k] = f"{lines[k]} {junk}"
        what = f"append {junk!r} to line {k + 1}"
    elif kind == "swap":
        j = rng.choice(worded)
        lines[k], lines[j] = lines[j], lines[k]
        what = f"swap lines {k + 1} and {j + 1}"
    else:
        lines.insert(k, lines[k])
        what = f"duplicate line {k + 1}"
    return "\n".join(lines) + "\n", what


def run_mutants(out_dir: str, sources: list[str]) -> str:
    """Run ``flatten`` on seeded mutants of ``sources``; the combined digest."""
    rng = random.Random(MUTANT_SEED)
    total = hashlib.sha256()
    for m in range(N_MUTANTS):
        source = rng.choice(sources)
        with open(source, encoding="utf-8") as fh:
            text, what = mutate(fh.read(), rng)
        path = os.path.join(out_dir, "mutant.sb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = capture(["flatten", path, "--format", "json"])
        digest = hashlib.sha256((out + err).encode()).hexdigest()
        print(f"mutant{m}", os.path.basename(source), what, code, digest)
        total.update(f"{code} {digest}".encode())
    return total.hexdigest()


def run_usage() -> str:
    """Run every usage case ``USAGE_ROUNDS`` times; the combined digest.
    Help text wraps at ``COLUMNS``, which this sets for the rest of the
    process."""
    os.environ["COLUMNS"] = USAGE_COLUMNS
    total = hashlib.sha256()
    for n in range(USAGE_ROUNDS):
        for argv in USAGE_CASES:
            code, out, err = capture(argv)
            digest = hashlib.sha256((out + err).encode()).hexdigest()
            print(f"usage{n}", " ".join(argv) or "(none)", code, digest)
            total.update(f"{code} {digest}".encode())
    return total.hexdigest()


def run_memo(paths: list[str]) -> str:
    """Run both library verdicts on one system per order; the combined digest."""
    total = hashlib.sha256()
    for path in paths:
        for order in MEMO_ORDERS:
            sys_ = load_model(path)
            doc = {}
            for mode, check in order:
                v = check(sys_)
                doc[mode] = {"holds": v.holds,
                             "prefix": [state_json(f) for f in v.evidence.prefix],
                             "cycle": [state_json(f) for f in v.evidence.cycle]}
            digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            print(os.path.basename(path), "memo", ",".join(doc), digest)
            total.update(digest.encode())
    return total.hexdigest()


def relation_files(out_dir: str) -> list[str]:
    """The systems only the relation queries run on, written to ``out_dir``."""
    systems = [make(n) for make in (fan_system, spread_fan_system, ladder_system,
                                    cascade_ladder_system)
               for n in FAN_SIZES]
    systems += [rules_system(seed) for seed in range(RULES_SYSTEMS)]
    systems += [opened_corridor_system(n) for n in CORRIDOR_BLOCKS]
    return [write_model(out_dir, sys_.name, sys_) for sys_ in systems]


def run_relations(paths: list[str]) -> str:
    """Run the relation queries on one system per order; the combined digest."""
    total = hashlib.sha256()
    for path in paths:
        grid = AdaptRelation.of(map(tuple, grid_pairs(path)))
        for order in (RELATION_QUERIES, RELATION_QUERIES[::-1]):
            sys_ = load_model(path)
            doc = {}
            for name in order:
                query = getattr(adapt, name)
                res = query(sys_, grid) if name.startswith("is_") else query(sys_)
                if isinstance(res, RelationCheck):
                    doc[name] = [res.ok, [str(v) for v in res.violations]]
                else:
                    doc[name] = None if res is None else [list(pair) for pair in res]
            digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            print(os.path.basename(path), "relations", ",".join(doc), digest)
            total.update(digest.encode())
    return total.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    total = hashlib.sha256()
    files = model_files(argv[0])
    grids = [grid_file(argv[0], path) for path in files]
    for path, grid in zip(files, grids):
        for command in COMMANDS:
            total.update(run_command(path, command,
                                     [a.format(grid=grid) for a in command[1:]]))
    extended = total.copy()
    corridors = [write_model(argv[0], f"corridor{n}", corridor_system(n))
                 for n in CORRIDOR_BLOCKS]
    for path in corridors:
        for command in CORRIDOR_COMMANDS:
            extended.update(run_command(path, command, list(command[1:])))
    mutants = run_mutants(argv[0], files[:len(models.NAMES) + MUTANT_SOURCES])
    usage = run_usage()
    dot = hashlib.sha256()
    for path in files:
        for command in DOT_COMMANDS:
            dot.update(run_command(path, command, list(command[1:])))
    text = hashlib.sha256()
    for path in files:
        sys_ = load_model(path)
        initial = f"{sys_.b.initial},{sys_.s.initial}"
        for command in TEXT_COMMANDS:
            text.update(run_command(path, command,
                                    [a.format(initial=initial) for a in command[1:]]))
    budget = hashlib.sha256()
    n_budget = len(models.NAMES) + BUDGET_SYSTEMS
    for path, grid in zip(files[:n_budget], grids):
        for command in BUDGET_COMMANDS:
            for n in BUDGETS:
                bounded = (*command, "--max-states", str(n))
                budget.update(run_command(path, bounded,
                                          [a.format(grid=grid) for a in bounded[1:]],
                                          with_err=True))
    ctl = hashlib.sha256()
    for path in files:
        for formula in CTL_FORMULAS:
            ctl.update(run_command(path, ("ctl", "--ctl", formula), ["--ctl", formula],
                                   with_err=True))
    memo = run_memo(files + corridors)
    relations = run_relations(files + corridors + relation_files(argv[0]))
    print("TOTAL", total.hexdigest(), file=sys.stderr)
    print("TOTAL+corridor", extended.hexdigest(), file=sys.stderr)
    print("MUTANTS", mutants, file=sys.stderr)
    print("USAGE", usage, file=sys.stderr)
    print("DOT", dot.hexdigest(), file=sys.stderr)
    print("TEXT", text.hexdigest(), file=sys.stderr)
    print("BUDGET", budget.hexdigest(), file=sys.stderr)
    print("CTL", ctl.hexdigest(), file=sys.stderr)
    print("MEMO", memo, file=sys.stderr)
    print("RELATIONS", relations, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
