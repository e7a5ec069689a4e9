"""Two-level system models: behaviour machines under constraint machines.

A system couples a behavioural machine (states carrying observations) with a
structural machine whose states are labelled by constraint formulas and whose
transitions carry invariant formulas.  Behaviour machines can be given
explicitly or as guarded rules that are expanded to the reachable state
space.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .constraints import (
    FORMULA_GRAMMAR,
    BoolSort,
    BoundedInt,
    EnumSort,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    Signature,
    Sort,
    Token,
    Value,
    evaluate,
    free_observables,
    parse_with,
    pretty,
    sort_check,
    tokenize,
)

log = logging.getLogger(__name__)


class ModelError(Exception):
    """Raised for malformed model descriptions."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


@dataclass(eq=False)
class BState:
    """A behaviour state: an id plus a total observation of the signature."""

    id: str
    obs: Mapping[str, Value]


class BLevel:
    """Behaviour machine: finite states, an initial state, transitions."""

    def __init__(self, states: Iterable[BState], initial: str,
                 transitions: Iterable[tuple[str, str]]):
        self.states: dict[str, BState] = {}
        for st in states:
            if st.id in self.states:
                raise ValueError(f"duplicate behaviour state {st.id!r}")
            self.states[st.id] = st
        self.initial = initial
        self.transitions = tuple(sorted(set(transitions)))
        succ: dict[str, list[str]] = {q: [] for q in self.states}
        for src, dst in self.transitions:
            succ.setdefault(src, []).append(dst)
        self._succ = {q: tuple(ts) for q, ts in succ.items()}

    def successors(self, q: str) -> tuple[str, ...]:
        return self._succ.get(q, ())

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """State ids in sorted order; a state's position is its rank."""
        return tuple(sorted(self.states))

    @cached_property
    def rank(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.ids)}

    @cached_property
    def succ_ranks(self) -> tuple[tuple[int, ...], ...]:
        """The successor ranks of each state, by rank; ascending, since
        successor ids are sorted."""
        rank = self.rank
        return tuple(tuple(rank[d] for d in self.successors(q)) for q in self.ids)


@dataclass(frozen=True)
class STransition:
    source: str
    inv: Formula
    target: str


class SLevel:
    """Structural machine: constraint-labelled states, invariant-labelled
    transitions."""

    def __init__(self, states: Iterable[tuple[str, Formula]], initial: str,
                 transitions: Iterable[STransition]):
        self.states: dict[str, Formula] = {}
        for rid, label in states:
            if rid in self.states:
                raise ValueError(f"duplicate structure state {rid!r}")
            self.states[rid] = label
        self.initial = initial
        seen: set[STransition] = set()
        ordered: list[STransition] = []
        for tr in transitions:
            if tr not in seen:  # same invariant AST between same pair collapses
                seen.add(tr)
                ordered.append(tr)
        self.transitions = tuple(ordered)
        by_src: dict[str, list[STransition]] = {rid: [] for rid in self.states}
        for tr in self.transitions:
            by_src.setdefault(tr.source, []).append(tr)
        self._from = {rid: tuple(ts) for rid, ts in by_src.items()}

    def label(self, r: str) -> Formula:
        return self.states[r]

    def transitions_from(self, r: str) -> tuple[STransition, ...]:
        return self._from.get(r, ())

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """State ids in sorted order; a state's position is its rank."""
        return tuple(sorted(self.states))

    @cached_property
    def rank(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.ids)}

    @cached_property
    def phases(self) -> tuple[Optional[tuple[Formula, str]], ...]:
        """The distinct (invariant, target) pairs of the transitions, ranked
        from 1 by target and printed invariant; rank 0 is ``None``, no phase."""
        distinct = dict.fromkeys((tr.inv, tr.target) for tr in self.transitions)
        return (None, *sorted(distinct, key=lambda ph: (ph[1], pretty(ph[0]))))

    @cached_property
    def phase_rank(self) -> dict[tuple[Formula, str], int]:
        return {ph: p for p, ph in enumerate(self.phases) if p}


class SBSystem:
    """A behaviour level coupled with a structural level over one signature."""

    def __init__(self, name: str, sig: Signature, b: BLevel, s: SLevel):
        self.name = name
        self.sig = sig
        self.b = b
        self.s = s
        # the satisfaction table: id of a formula -> (formula, row); holding
        # the formula keeps its id from being reused
        self._sat: dict[int, tuple[Formula, bytearray]] = {}

    def sat_row(self, phi: Formula) -> bytearray:
        """The row of ``phi`` in the satisfaction table: entry ``i`` is 1 when
        the behaviour state of rank ``i`` satisfies ``phi``, else 0.

        A row is filled on the first use of the formula object, evaluating
        ``phi`` once per distinct observation, and kept for the life of the
        system; rows are keyed by identity, so no formula tree is hashed.
        """
        hit = self._sat.get(id(phi))
        if hit is None:
            distinct, of_rank = self._observations
            values = bytes(bool(evaluate(phi, obs)) for obs in distinct)
            hit = self._sat[id(phi)] = (phi, bytearray(map(values.__getitem__, of_rank)))
        return hit[1]

    @cached_property
    def _observations(self) -> tuple[list[Mapping[str, Value]], list[int]]:
        """The distinct observations of the behaviour states, and for each
        rank the position of its state's observation among them."""
        names = self.sig.names
        first: dict[tuple, int] = {}
        distinct: list[Mapping[str, Value]] = []
        of_rank = []
        for q in self.b.ids:
            obs = self.b.states[q].obs
            c = first.setdefault(tuple(map(obs.__getitem__, names)), len(distinct))
            if c == len(distinct):
                distinct.append(obs)
            of_rank.append(c)
        return distinct, of_rank

    def sat(self, q: str, phi: Formula) -> bool:
        """Whether behaviour state ``q`` satisfies ``phi``."""
        return bool(self.sat_row(phi)[self.b.rank[q]])


@dataclass(frozen=True)
class GuardedRule:
    """``guard -> name := expr, ...`` with all updates read off the pre-state."""

    name: str
    guard: Formula
    updates: tuple[tuple[str, Formula], ...]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self):
        return f"{self.severity}[{self.code}]: {self.message}"


# ---------------------------------------------------------------------------
# Guarded rule expansion


def canonical_state_id(sig: Signature, obs: Mapping[str, Value]) -> str:
    """Render an observation as a state id, values in declaration order."""
    parts = []
    for name, _sort in sig.items():
        v = obs[name]
        if isinstance(v, bool):
            parts.append("true" if v else "false")
        else:
            parts.append(str(v))
    return "_".join(parts)


def expand_rules(rules: Iterable[GuardedRule], sig: Signature,
                 init: Mapping[str, Value]) -> BLevel:
    """Expand guarded rules into the behaviour machine reachable from ``init``.

    A rule fires at a state when its guard holds and every updated value stays
    inside its sort bounds; out-of-range updates prune the firing with a
    warning.  The produced state set is the least fixpoint, so it does not
    depend on rule order.
    """
    sig.check_observation(init)
    rules = tuple(rules)
    names = tuple(name for name, _ in sig.items())

    def key(obs):
        return tuple(obs[n] for n in names)

    seen: dict[tuple, dict[str, Value]] = {key(init): dict(init)}
    queue = [key(init)]
    transitions: set[tuple[str, str]] = set()
    while queue:
        k = queue.pop()
        obs = seen[k]
        src = canonical_state_id(sig, obs)
        for rule in rules:
            if not evaluate(rule.guard, obs):
                continue
            new = dict(obs)
            ok = True
            for name, expr in rule.updates:
                v = evaluate(expr, obs)
                if not sig.sort_of(name).contains(v):
                    log.warning(
                        "rule %s at %s drives %s to %r, outside its sort; "
                        "firing pruned", rule.name, src, name, v)
                    ok = False
                    break
                new[name] = v
            if not ok:
                continue
            nk = key(new)
            if nk not in seen:
                seen[nk] = new
                queue.append(nk)
            transitions.add((src, canonical_state_id(sig, new)))
    states = [BState(canonical_state_id(sig, obs), obs) for obs in seen.values()]
    return BLevel(states, canonical_state_id(sig, init), transitions)


# ---------------------------------------------------------------------------
# Validation


def validate(sys: SBSystem) -> list[Diagnostic]:
    """Well-formedness diagnostics; the empty list means the system is valid.

    Checks graph integrity, observation totality and sort conformance,
    well-sortedness of every structure formula, and that the initial
    behaviour state satisfies the initial structure constraints.
    """
    out: list[Diagnostic] = []

    def err(code, message):
        out.append(Diagnostic("error", code, message))

    b, s, sig = sys.b, sys.s, sys.sig
    if b.initial not in b.states:
        err("b-init", f"initial behaviour state {b.initial!r} undeclared")
    for src, dst in b.transitions:
        for q in (src, dst):
            if q not in b.states:
                err("b-dangling", f"behaviour transition endpoint {q!r} undeclared")
    for st in b.states.values():
        try:
            sig.check_observation(st.obs)
        except ValueError as exc:
            err("b-obs", f"state {st.id!r}: {exc}")
    if s.initial not in s.states:
        err("s-init", f"initial structure state {s.initial!r} undeclared")
    for tr in s.transitions:
        for r in (tr.source, tr.target):
            if r not in s.states:
                err("s-dangling", f"structure transition endpoint {r!r} undeclared")

    formulas = [(f"label of {rid}", label) for rid, label in s.states.items()]
    formulas += [(f"invariant of {tr.source}->{tr.target}", tr.inv)
                 for tr in s.transitions]
    for what, phi in formulas:
        try:
            sort_check(phi, sig)
        except FormulaError as exc:
            err("ill-sorted", f"{what}: {exc}")
        else:
            loose = free_observables(phi) - set(sig.names)
            if loose:
                err("free-vars", f"{what}: unknown observables {sorted(loose)}")

    if not out and b.initial in b.states and s.initial in s.states:
        if not sys.sat(b.initial, s.label(s.initial)):
            err("def3", "initial behaviour state does not satisfy the initial "
                f"structure constraints {pretty(s.label(s.initial))!r}")
    return out


# ---------------------------------------------------------------------------
# Model DSL


def _split_sections(text: str):
    """Group the non-blank lines of a model file by section header."""
    name = None
    sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    current: Optional[list[tuple[int, str]]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if head[0] == "system":
            if name is not None:
                raise ModelError("duplicate 'system' line", lineno)
            if len(head) != 2:
                raise ModelError("expected 'system <id>'", lineno)
            name = head[1]
            continue
        if head[0] == "observables":
            current = []
            sections.append(("observables", lineno, current))
            continue
        if head[0] == "behaviour":
            if len(head) != 2 or head[1] not in ("rules", "explicit"):
                raise ModelError("expected 'behaviour rules' or 'behaviour explicit'", lineno)
            current = []
            sections.append(("behaviour " + head[1], lineno, current))
            continue
        if head[0] == "structure":
            current = []
            sections.append(("structure", lineno, current))
            continue
        if current is None:
            raise ModelError(f"unexpected line {line!r} before any section", lineno)
        current.append((lineno, line))
    if name is None:
        raise ModelError("missing 'system <id>' line")
    return name, sections


def _line_tokens(line: str, lineno: int) -> list[Token]:
    try:
        return tokenize(line, first_line=lineno)
    except FormulaSyntaxError as exc:
        raise ModelError(str(exc), lineno) from exc


def _expect(toks, i, text, lineno):
    if toks[i].text != text:
        raise ModelError(f"expected {text!r}, found {toks[i].text!r}", lineno)
    return i + 1


def _state_id(toks, i, lineno):
    tok = toks[i]
    if tok.kind not in ("IDENT", "INT"):
        raise ModelError(f"expected a state id, found {tok.text!r}", lineno)
    return tok.text, i + 1


def _int_bound(toks, i, lineno):
    sign = 1
    if toks[i].text == "-":
        sign, i = -1, i + 1
    if toks[i].kind != "INT":
        raise ModelError(f"expected an integer bound, found {toks[i].text!r}", lineno)
    return sign * int(toks[i].text), i + 1


def _parse_observables(lines) -> Signature:
    obs: list[tuple[str, Sort]] = []
    for lineno, line in lines:
        toks = _line_tokens(line, lineno)
        if toks[0].kind != "IDENT":
            raise ModelError("expected '<name> : <sort>'", lineno)
        name = toks[0].text
        i = _expect(toks, 1, ":", lineno)
        kind = toks[i].text
        i += 1
        if kind == "bool":
            sort: Sort = BoolSort()
        elif kind == "int":
            lo, i = _int_bound(toks, i, lineno)
            i = _expect(toks, i, "..", lineno)
            hi, i = _int_bound(toks, i, lineno)
            sort = BoundedInt(lo, hi)
        elif kind == "enum":
            i = _expect(toks, i, "{", lineno)
            labels = []
            while toks[i].text != "}":
                if toks[i].kind != "IDENT":
                    raise ModelError("expected an enum label", lineno)
                labels.append(toks[i].text)
                i += 1
                if toks[i].text == ",":
                    i += 1
            i += 1
            sort = EnumSort(tuple(labels))
        else:
            raise ModelError(f"unknown sort {kind!r}", lineno)
        if toks[i].kind != "EOF":
            raise ModelError(f"trailing {toks[i].text!r}", lineno)
        obs.append((name, sort))
    try:
        return Signature(obs)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc


def _parse_value(toks, i, sig, name, lineno):
    tok = toks[i]
    sort = sig.sort_of(name) if name in sig else None
    if sort is None:
        raise ModelError(f"unknown observable {name!r}", lineno)
    if tok.text == "-" and toks[i + 1].kind == "INT":
        value: Value = -int(toks[i + 1].text)
        i += 2
    elif tok.kind == "INT":
        value = int(tok.text)
        i += 1
    elif tok.text in ("true", "false"):
        value = tok.text == "true"
        i += 1
    elif tok.kind == "IDENT":
        value = tok.text
        i += 1
    else:
        raise ModelError(f"expected a value, found {tok.text!r}", lineno)
    if not sort.contains(value):
        raise ModelError(f"value {value!r} not in sort of {name!r}", lineno)
    return value, i


def _parse_assignments(toks, i, sig, lineno, sep: str):
    """Parse ``name <sep> value [, ...]`` and return the observation."""
    obs: dict[str, Value] = {}
    while True:
        if toks[i].kind != "IDENT":
            raise ModelError(f"expected an observable name, found {toks[i].text!r}", lineno)
        name = toks[i].text
        i = _expect(toks, i + 1, sep, lineno)
        if name in obs:
            raise ModelError(f"observable {name!r} assigned twice", lineno)
        obs[name], i = _parse_value(toks, i, sig, name, lineno)
        if toks[i].text != ",":
            return obs, i
        i += 1


def _parse_formula_at(toks, i, sig, lineno, expect: str = "bool"):
    try:
        node, i, positions = parse_with(FORMULA_GRAMMAR, toks, i, sig)
        sort_check(node, sig, positions, expect=expect)
    except FormulaError as exc:
        raise ModelError(str(exc), lineno) from exc
    return node, i


def _parse_behaviour_explicit(lines, sig) -> BLevel:
    states: list[BState] = []
    ids: set[str] = set()
    initial = None
    transitions: list[tuple[str, str]] = []
    for lineno, line in lines:
        toks = _line_tokens(line, lineno)
        kw = toks[0].text
        if kw == "state":
            sid, i = _state_id(toks, 1, lineno)
            if sid in ids:
                raise ModelError(f"duplicate behaviour state {sid!r}", lineno)
            i = _expect(toks, i, "{", lineno)
            obs, i = _parse_assignments(toks, i, sig, lineno, "=")
            i = _expect(toks, i, "}", lineno)
            try:
                sig.check_observation(obs)
            except ValueError as exc:
                raise ModelError(str(exc), lineno) from exc
            ids.add(sid)
            states.append(BState(sid, obs))
        elif kw == "init":
            initial, _ = _state_id(toks, 1, lineno)
        elif kw == "trans":
            src, i = _state_id(toks, 1, lineno)
            i = _expect(toks, i, "->", lineno)
            dst, i = _state_id(toks, i, lineno)
            transitions.append((src, dst))
        else:
            raise ModelError(f"unexpected {kw!r} in explicit behaviour", lineno)
    if initial is None:
        raise ModelError("behaviour section misses 'init'")
    if initial not in ids:
        raise ModelError(f"initial behaviour state {initial!r} undeclared")
    for src, dst in transitions:
        if src not in ids or dst not in ids:
            raise ModelError(f"dangling behaviour transition {src} -> {dst}")
    return BLevel(states, initial, transitions)


def _parse_behaviour_rules(lines, sig) -> BLevel:
    init_obs = None
    rules: list[GuardedRule] = []
    names: set[str] = set()
    for lineno, line in lines:
        toks = _line_tokens(line, lineno)
        kw = toks[0].text
        if kw == "init":
            obs, _ = _parse_assignments(toks, 1, sig, lineno, "=")
            try:
                sig.check_observation(obs)
            except ValueError as exc:
                raise ModelError(str(exc), lineno) from exc
            init_obs = obs
        elif kw == "rule":
            if toks[1].kind != "IDENT":
                raise ModelError("expected a rule name", lineno)
            rname = toks[1].text
            if rname in names:
                raise ModelError(f"duplicate rule {rname!r}", lineno)
            names.add(rname)
            i = _expect(toks, 2, ":", lineno)
            guard, i = _parse_formula_at(toks, i, sig, lineno)
            i = _expect(toks, i, "->", lineno)
            updates: list[tuple[str, Formula]] = []
            seen: set[str] = set()
            while True:
                if toks[i].kind != "IDENT":
                    raise ModelError("expected an update target", lineno)
                target = toks[i].text
                if target not in sig or not isinstance(sig.sort_of(target), BoundedInt):
                    raise ModelError(
                        f"update target {target!r} is not an integer observable", lineno)
                if target in seen:
                    raise ModelError(f"observable {target!r} updated twice", lineno)
                seen.add(target)
                i = _expect(toks, i + 1, ":=", lineno)
                expr, i = _parse_formula_at(toks, i, sig, lineno, expect="int")
                updates.append((target, expr))
                if toks[i].text != ",":
                    break
                i += 1
            if toks[i].kind != "EOF":
                raise ModelError(f"trailing {toks[i].text!r}", lineno)
            rules.append(GuardedRule(rname, guard, tuple(updates)))
        else:
            raise ModelError(f"unexpected {kw!r} in rule behaviour", lineno)
    if init_obs is None:
        raise ModelError("rule behaviour misses 'init'")
    return expand_rules(rules, sig, init_obs)


def _parse_structure(lines, sig) -> SLevel:
    states: list[tuple[str, Formula]] = []
    ids: set[str] = set()
    initial = None
    transitions: list[STransition] = []
    for lineno, line in lines:
        toks = _line_tokens(line, lineno)
        kw = toks[0].text
        if kw == "state":
            rid, i = _state_id(toks, 1, lineno)
            if rid in ids:
                raise ModelError(f"duplicate structure state {rid!r}", lineno)
            i = _expect(toks, i, ":", lineno)
            label, i = _parse_formula_at(toks, i, sig, lineno)
            if toks[i].kind != "EOF":
                raise ModelError(f"trailing {toks[i].text!r}", lineno)
            ids.add(rid)
            states.append((rid, label))
        elif kw == "init":
            initial, _ = _state_id(toks, 1, lineno)
        elif kw == "trans":
            src, i = _state_id(toks, 1, lineno)
            i = _expect(toks, i, "->", lineno)
            dst, i = _state_id(toks, i, lineno)
            if toks[i].text != "inv" or toks[i].kind != "IDENT":
                raise ModelError("expected 'inv <formula>'", lineno)
            inv, i = _parse_formula_at(toks, i + 1, sig, lineno)
            if toks[i].kind != "EOF":
                raise ModelError(f"trailing {toks[i].text!r}", lineno)
            transitions.append(STransition(src, inv, dst))
        else:
            raise ModelError(f"unexpected {kw!r} in structure", lineno)
    if initial is None:
        raise ModelError("structure section misses 'init'")
    if initial not in ids:
        raise ModelError(f"initial structure state {initial!r} undeclared")
    for tr in transitions:
        if tr.source not in ids or tr.target not in ids:
            raise ModelError(f"dangling structure transition {tr.source} -> {tr.target}")
    return SLevel(states, initial, transitions)


def parse_model(text: str) -> SBSystem:
    """Parse a model description; rule-based behaviours are expanded.

    Syntactic problems, duplicate ids, dangling endpoints and ill-sorted
    formulas raise ModelError.  Semantic well-formedness (in particular the
    initial-state condition) is reported by :func:`validate`.
    """
    name, sections = _split_sections(text)
    sig = None
    b = None
    s = None
    for kind, lineno, lines in sections:
        if kind == "observables":
            if sig is not None:
                raise ModelError("duplicate observables section", lineno)
            sig = _parse_observables(lines)
        elif kind.startswith("behaviour"):
            if sig is None:
                raise ModelError("behaviour section before observables", lineno)
            if b is not None:
                raise ModelError("duplicate behaviour section", lineno)
            if kind.endswith("explicit"):
                b = _parse_behaviour_explicit(lines, sig)
            else:
                b = _parse_behaviour_rules(lines, sig)
        elif kind == "structure":
            if sig is None:
                raise ModelError("structure section before observables", lineno)
            if s is not None:
                raise ModelError("duplicate structure section", lineno)
            s = _parse_structure(lines, sig)
    if sig is None or b is None or s is None:
        raise ModelError("model needs observables, behaviour and structure sections")
    return SBSystem(name, sig, b, s)


def load_model(path) -> SBSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
