"""Command-line front end and the seeded random system generator.

Exit codes: 0 when the checked property holds (or the command just
succeeds), 1 when it fails, 2 for usage and file errors and for every
``InputError`` (parse and validation errors, a state space past its
``--max-states`` budget, a bad root or generator setting), 3 for an
internal error, reported with the exception's name.

:func:`run` builds its argument parser once per process, on first use, and
is safe to call repeatedly in-process: each call parses into a fresh
namespace and writes usage errors and help to the ``sys.stdout`` and
``sys.stderr`` of that moment, so redirecting them captures the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys as _sys

from . import adapt, flatten, kripke
from .constraints import BoundedInt, InputError, Signature, parse_formula, pretty
from .ctl import parse_ctl, sat_set
from .model import (BLevel, BState, ModelError, SBSystem, SLevel, STransition, load_model,
                    validate, value_text)


class GenerationError(InputError):
    pass


# ---------------------------------------------------------------------------
# Random system generation

_LABEL_WIDTH = 3


def gen_random(seed: int, n_b: int, n_s: int, density: float) -> SBSystem:
    """A validate-passing random system, deterministic in ``seed``.

    One integer observable; structure labels partition its range into
    ``n_s`` consecutive intervals; behaviour transitions are drawn
    independently with probability ``density``; the initial observation is
    redrawn inside the initial structure interval so the system is
    well-formed by construction.
    """
    if n_b < 1 or n_s < 1:
        raise GenerationError("need at least one state per level")
    if not 0 < density <= 1:
        raise GenerationError("density must be in (0, 1]")
    rng = random.Random(seed)
    hi = n_s * _LABEL_WIDTH - 1
    sig = Signature([("x", BoundedInt(0, hi))])

    def interval(i):
        return i * _LABEL_WIDTH, i * _LABEL_WIDTH + _LABEL_WIDTH - 1

    states = [BState(f"b{i}", {"x": rng.randint(0, hi)}) for i in range(n_b)]
    states[0].obs["x"] = rng.randint(*interval(0))  # retarget q0 into the r0 region
    b_trans = [(f"b{i}", f"b{j}")
               for i in range(n_b) for j in range(n_b)
               if rng.random() < density]
    b = BLevel(states, "b0", b_trans)

    s_states = []
    for i in range(n_s):
        lo, hi_i = interval(i)
        s_states.append((f"r{i}", parse_formula(f"x >= {lo} && x <= {hi_i}", sig)))
    s_trans = []
    for i in range(n_s):
        for j in range(n_s):
            if rng.random() >= 0.5:
                continue
            kind = rng.randrange(4)
            if kind == 0:
                text = "true"
            elif kind == 1:
                text = f"x >= {rng.randint(0, hi)}"
            elif kind == 2:
                text = f"x <= {rng.randint(0, hi)}"
            else:
                a = rng.randint(0, hi)
                text = f"x >= {a} && x <= {rng.randint(a, hi)}"
            s_trans.append(STransition(f"r{i}", parse_formula(text, sig), f"r{j}"))
    s = SLevel(s_states, "r0", s_trans)

    sys = SBSystem(f"gen_seed{seed}", sig, b, s)
    problems = validate(sys)
    if problems:
        raise GenerationError(f"generated system invalid: {problems[0]}")
    return sys


def system_to_dsl(sys: SBSystem) -> str:
    """Serialize a system in the model DSL, deterministically."""
    lines = [f"system {sys.name}", "", "observables"]
    lines += [f"  {name} : {sort}" for name, sort in sys.sig.items()]
    lines += ["", "behaviour explicit"]
    for st in sys.b.states.values():
        body = ", ".join(f"{n}={value_text(st.obs[n])}" for n in sys.sig.names)
        lines.append(f"  state {st.id} {{ {body} }}")
    lines.append(f"  init {sys.b.initial}")
    for src, dst in sys.b.transitions:
        lines.append(f"  trans {src} -> {dst}")
    lines += ["", "structure"]
    for rid, label in sys.s.states.items():
        lines.append(f"  state {rid} : {pretty(label)}")
    lines.append(f"  init {sys.s.initial}")
    for tr in sys.s.transitions:
        lines.append(f"  trans {tr.source} -> {tr.target} inv {pretty(tr.inv)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output helpers

def _holds_text(holds: bool) -> str:
    word, color = ("holds", "32") if holds else ("fails", "31")
    if os.environ.get("SBCHECK_COLOR", "0") == "1":
        return f"\x1b[{color}m{word}\x1b[0m"
    return word


def _evidence_json(e: adapt.Evidence) -> dict:
    return {
        "prefix": [flatten.state_json(f) for f in e.prefix],
        "cycle": [flatten.state_json(f) for f in e.cycle],
    }


def _verdict_json(sys: SBSystem, mode: str, holds: bool,
                  relation, evidence) -> str:
    doc = {
        "system": sys.name,
        "mode": mode,
        "holds": holds,
        "relation": None if relation is None else [list(p) for p in relation],
        "evidence": {"prefix": [], "cycle": []} if evidence is None
        else _evidence_json(evidence),
    }
    return json.dumps(doc, indent=2)


def _load_valid(args) -> SBSystem:
    sys_ = load_model(args.file, args.max_states)
    problems = validate(sys_)
    if problems:
        raise ModelError("; ".join(str(p) for p in problems))
    return sys_


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args) -> int:
    sys_ = load_model(args.file, args.max_states)
    problems = validate(sys_)
    if not problems:
        print(f"{sys_.name}: valid")
        return 0
    for p in problems:
        print(str(p), file=_sys.stderr)
    return 1


def _cmd_flatten(args) -> int:
    sys_ = _load_valid(args)
    flat = flatten.build_flat(sys_, max_states=args.max_states)
    if args.format == "json":
        print(flatten.to_json(flat))
        return 0
    steady = sum(1 for f in flat.states if f.is_steady)
    print(f"{sys_.name}: {flat.n_states} flat states "
          f"({steady} steady, {flat.n_states - steady} adapting), "
          f"{flat.n_transitions} transitions")
    dead = flat.dead_states()
    if dead:
        print(f"dead states ({len(dead)}):")
        for f in dead:
            print(f"  {f}")
    return 0


def _cmd_check(args) -> int:
    sys_ = _load_valid(args)
    check = adapt.check_weak if args.mode == "weak" else adapt.check_strong
    verdict = check(sys_, args.max_states)
    if args.format == "json":
        print(_verdict_json(sys_, args.mode, verdict.holds, None, verdict.evidence))
    else:
        print(f"{sys_.name}: {args.mode} adaptability {_holds_text(verdict.holds)}")
        for part, states in (("prefix", verdict.evidence.prefix),
                             ("cycle", verdict.evidence.cycle)):
            if states:
                print(f"  {part}:")
                for f in states:
                    print(f"    {f}")
    return 0 if verdict.holds else 1


def _cmd_relation(args) -> int:
    sys_ = _load_valid(args)
    if args.mode == "weak":
        rel = adapt.weak_relation(sys_, args.max_states)
        holds = (sys_.b.initial, sys_.s.initial) in rel
        shown = rel
    else:
        rel = adapt.strong_relation(sys_, args.max_states)
        holds = rel is not None
        shown = rel if rel is not None else adapt.AdaptRelation(frozenset())
    if args.format == "json":
        print(_verdict_json(sys_, args.mode, holds, list(shown), None))
    else:
        print(f"{sys_.name}: {args.mode} adaptability {_holds_text(holds)} "
              f"({len(shown)} pairs)")
        for q, r in shown:
            print(f"  ({q}, {r})")
    return 0 if holds else 1


def _cmd_verify_relation(args) -> int:
    sys_ = _load_valid(args)
    with open(args.relation, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # nested too deep to be a relation file
            doc = None
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(x, str) for x in p) for p in pairs):
        raise ModelError(f"{args.relation}: expected an object whose 'pairs' "
                         "is a list of [behaviour state, structure state] pairs")
    rel = adapt.AdaptRelation.of((q, r) for q, r in pairs)
    checker = adapt.is_weak_adaptation if args.mode == "weak" else adapt.is_strong_adaptation
    result = checker(sys_, rel, args.max_states)
    word = "is" if result.ok else "is not"
    print(f"{sys_.name}: given relation {word} a {args.mode} adaptation "
          f"({len(rel)} pairs)")
    for v in result.violations:
        print(f"  {v}")
    return 0 if result.ok else 1


def _cmd_ctl(args) -> int:
    sys_ = _load_valid(args)
    phi = parse_ctl(args.ctl)
    root = None
    if args.at:
        parts = args.at.split(",")
        if len(parts) != 2:
            raise ModelError("--at expects '<q>,<r>'")
        root = (parts[0].strip(), parts[1].strip())
    flat = flatten.build_flat(sys_, root=root, max_states=args.max_states)
    k = kripke.to_kripke(flat)
    holds = k.initial in sat_set(k, phi)
    at = str(flat.initial)
    print(f"{sys_.name}: {args.ctl} {_holds_text(holds)} at {at}")
    return 0 if holds else 1


def _cmd_export(args) -> int:
    sys_ = _load_valid(args)
    flat = flatten.build_flat(sys_, max_states=args.max_states)
    if args.stage == "flat":
        text = flatten.to_dot(flat) if args.format == "dot" else flatten.to_json(flat)
    else:
        k = kripke.to_kripke(flat)
        text = kripke.to_dot(flat, k) if args.format == "dot" else kripke.to_json(flat, k)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_gen(args) -> int:
    sys_ = gen_random(args.seed, args.b_states, args.s_states, args.density)
    text = system_to_dsl(sys_)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}: {args.b_states} behaviour states, "
          f"{args.s_states} structure states")
    return 0


def _state_budget(text: str) -> int:
    """The value of ``--max-states``: a positive number of states."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive number of states, got {text!r}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sbcheck",
        description="Adaptability checker for two-level constrained state machines.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model well-formedness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("flatten", help="build the flat semantics")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("check", help="decide adaptability by model checking")
    p.add_argument("file")
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("relation", help="decide adaptability by relation construction")
    p.add_argument("file")
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_relation)

    p = sub.add_parser("verify-relation", help="check a user-supplied relation")
    p.add_argument("file")
    p.add_argument("--relation", required=True, help="JSON file with a 'pairs' list")
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.set_defaults(func=_cmd_verify_relation)

    p = sub.add_parser("ctl", help="check an arbitrary CTL formula")
    p.add_argument("file")
    p.add_argument("--ctl", required=True)
    p.add_argument("--at", help="seed the flat semantics at '<q>,<r>'")
    p.set_defaults(func=_cmd_ctl)

    p = sub.add_parser("export", help="export the flat or Kripke structure")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--stage", choices=("flat", "kripke"), default="flat")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("gen", help="generate a random system")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--b-states", type=int, default=8)
    p.add_argument("--s-states", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    for name, p in sub.choices.items():
        if name != "gen":  # every command that loads a model
            p.add_argument("--max-states", type=_state_budget, metavar="N",
                           help="stop with exit 2 once rule expansion, the "
                                "flat build or the relation route passes N "
                                "states")
    return top


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"sbcheck: error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        print(f"sbcheck: internal error: {type(exc).__name__}: {exc}",
              file=_sys.stderr)
        return 3


def main() -> None:
    _sys.exit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
