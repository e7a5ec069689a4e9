"""Two-level system models: behaviour machines under constraint machines.

A system couples a behavioural machine (states carrying observations) with a
structural machine whose states are labelled by constraint formulas and whose
transitions carry invariant formulas.  Behaviour machines can be given
explicitly or as guarded rules that are expanded to the reachable state
space.

Model files are read as token lines: each line is tokenized once, so token
columns are file columns, and every statement or section header ends with
its line.  A :class:`ModelError`, like every input error, carries the
line and column of the offending token.  Each level indexes its states,
and the structure level its phases, once, in its constructor.

Rule expansion warns of each pruned firing on the ``sbcheck.model`` logger,
which it fetches, importing ``logging``, only when a firing is pruned.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .constraints import (
    FORMULA_GRAMMAR,
    BoolSort,
    BoundedInt,
    EnumSort,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    InputError,
    Record,
    Signature,
    Sort,
    Token,
    Value,
    evaluate,
    parse_with,
    pretty,
    sort_check,
    tokenize,
)


class ModelError(InputError):
    """Raised for malformed model descriptions, located at the line and
    column of the offending token when there is one."""


class StateBudgetError(InputError):
    """Raised when a state space grows past the budget its caller set."""

    def __init__(self, layer: str, budget: int, what: str):
        super().__init__(f"{layer} passed the state budget of {budget} {what}")


class BState:
    """A behaviour state: an id plus a total observation of the signature;
    mutable, and equal only to itself."""

    __slots__ = __match_args__ = ("id", "obs")

    def __init__(self, id: str, obs: Mapping[str, Value]):
        self.id = id
        self.obs = obs

    __repr__ = Record.__repr__


class BLevel:
    """Behaviour machine: finite states, an initial state, transitions.

    ``ids`` lists the state ids in sorted order, and ``rank`` maps each id
    to its position there.
    """

    def __init__(self, states: Iterable[BState], initial: str,
                 transitions: Iterable[tuple[str, str]]):
        self.states: dict[str, BState] = {}
        for st in states:
            if st.id in self.states:
                raise ValueError(f"duplicate behaviour state {st.id!r}")
            self.states[st.id] = st
        self.initial = initial
        self.ids = tuple(sorted(self.states))
        self.rank = {q: i for i, q in enumerate(self.ids)}
        # dedupe in input order: pairs listed by source keep their runs, which
        # the sort merges instead of comparing pair by pair
        self.transitions = tuple(sorted(dict.fromkeys(transitions)))
        self._succ = dict.fromkeys(self.states, ())
        for src, group in groupby(self.transitions, itemgetter(0)):
            self._succ[src] = tuple([dst for _, dst in group])

    def successors(self, q: str) -> tuple[str, ...]:
        return self._succ.get(q, ())

    @cached_property
    def succ_ranks(self) -> tuple[tuple[int, ...], ...]:
        """The successor ranks of each state, by rank; ascending, since
        successor ids are sorted."""
        rank = self.rank.__getitem__
        return tuple([tuple(map(rank, ds)) for ds in map(self._succ.__getitem__, self.ids)])


class STransition(Record):
    __slots__ = ("source", "inv", "target")

    def __init__(self, source: str, inv: Formula, target: str):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "target", target)


class SLevel:
    """Structural machine: constraint-labelled states, invariant-labelled
    transitions.

    The level indexes itself once, when it is built.  ``ids`` and ``rank``
    order the states as in :class:`BLevel`.  A phase is named by its
    printed invariant and its target; ``phases[p]`` is the name of phase
    ``p`` and ``phase_rank`` maps a name back to ``p``.  Ranks run from 1
    by target, then printed invariant; rank 0 is ``None``, no phase.
    ``phase_inv[p]`` is the invariant formula of phase ``p``, and
    ``phase_starts[r]`` lists, ascending, the phases that the transitions
    of the state of rank ``r`` start.
    """

    def __init__(self, states: Iterable[tuple[str, Formula]], initial: str,
                 transitions: Iterable[STransition]):
        self.states: dict[str, Formula] = {}
        for rid, label in states:
            if rid in self.states:
                raise ValueError(f"duplicate structure state {rid!r}")
            self.states[rid] = label
        self.initial = initial
        self.ids = tuple(sorted(self.states))
        self.rank = {r: i for i, r in enumerate(self.ids)}
        # a transition is known by its printed invariant, which identifies
        # the tree because ``pretty`` round-trips; no formula tree is hashed
        keyed: dict[tuple[str, str, str], STransition] = {}
        inv: dict[tuple[str, str], Formula] = {}
        starts: dict[str, set[tuple[str, str]]] = {r: set() for r in self.ids}
        for tr in transitions:
            name = (pretty(tr.inv), tr.target)
            keyed.setdefault((tr.source, *name), tr)
            inv.setdefault(name, tr.inv)
            if tr.source in starts:
                starts[tr.source].add(name)
        self.transitions = tuple(keyed.values())
        self.phases = (None, *sorted(inv, key=lambda name: (name[1], name[0])))
        self.phase_rank = {name: p for p, name in enumerate(self.phases) if p}
        self.phase_inv = (None, *map(inv.__getitem__, self.phases[1:]))
        self.phase_starts = tuple(tuple(sorted(map(self.phase_rank.__getitem__, names)))
                                  for names in starts.values())

    def label(self, r: str) -> Formula:
        return self.states[r]


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
        obs = [self.b.states[q].obs for q in self.b.ids]
        # keys built column-wise, one list per observable; each new key takes the next number
        first: dict[tuple, int] = {}
        of_rank = [first.setdefault(key, len(first))
                   for key in zip(*[[o[name] for o in obs] for name in names])]
        return [dict(zip(names, key)) for key in first], of_rank

    def sat(self, q: str, phi: Formula) -> bool:
        """Whether behaviour state ``q`` satisfies ``phi``."""
        return bool(self.sat_row(phi)[self.b.rank[q]])


class GuardedRule(Record):
    """``guard -> name := expr, ...`` with all updates read off the pre-state."""

    __slots__ = ("name", "guard", "updates")

    def __init__(self, name: str, guard: Formula, updates: tuple[tuple[str, Formula], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "updates", updates)


class Diagnostic(Record):
    """A well-formedness error found by :func:`validate`."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)

    def __str__(self):
        return f"error[{self.code}]: {self.message}"


# ---------------------------------------------------------------------------
# Guarded rule expansion


def value_text(v: Value) -> str:
    """A value as the model language writes it."""
    return ("true" if v else "false") if isinstance(v, bool) else str(v)


def canonical_state_id(sig: Signature, obs: Mapping[str, Value]) -> str:
    """Render an observation as a state id, values in declaration order and
    a minus sign spelled ``m``, so that the id is one word."""
    return "_".join(value_text(obs[n]).replace("-", "m") for n in sig.names)


def expand_rules(rules: Iterable[GuardedRule], sig: Signature,
                 init: Mapping[str, Value], max_states: int | None = None) -> BLevel:
    """Expand guarded rules into the behaviour machine reachable from ``init``.

    A rule fires at a state when its guard holds and every updated value stays
    inside its sort bounds; out-of-range updates prune the firing with a
    warning.  The produced state set is the least fixpoint, so it does not
    depend on rule order.  Reaching more than ``max_states`` states, when
    given, raises :class:`StateBudgetError`.
    """
    sig.check_observation(init)
    rules = tuple(rules)
    names = tuple(name for name, _ in sig.items())

    def key(obs):
        return tuple(obs[n] for n in names)

    # each reached observation, by key, and its state id, named once
    seen: dict[tuple, tuple[dict[str, Value], str]] = {
        key(init): (dict(init), canonical_state_id(sig, init))}
    queue = [key(init)]
    transitions: set[tuple[str, str]] = set()
    if max_states is not None and max_states < 1:  # the initial state counts
        raise StateBudgetError("expand_rules", max_states, "behaviour states")
    while queue:
        obs, src = seen[queue.pop()]
        for rule in rules:
            if not evaluate(rule.guard, obs):
                continue
            new = dict(obs)
            ok = True
            for name, expr in rule.updates:
                v = evaluate(expr, obs)
                if not sig.sort_of(name).contains(v):
                    import logging
                    logging.getLogger(__name__).warning(
                        "rule %s at %s drives %s to %r, outside its sort; "
                        "firing pruned", rule.name, src, name, v)
                    ok = False
                    break
                new[name] = v
            if not ok:
                continue
            nk = key(new)
            hit = seen.get(nk)
            if hit is None:
                hit = seen[nk] = (new, canonical_state_id(sig, new))
                queue.append(nk)
                if max_states is not None and len(seen) > max_states:
                    raise StateBudgetError("expand_rules", max_states, "behaviour states")
            transitions.add((src, hit[1]))
    states = [BState(q, obs) for obs, q in seen.values()]
    return BLevel(states, states[0].id, transitions)


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
        out.append(Diagnostic(code, message))

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

    if not out and b.initial in b.states and s.initial in s.states:
        if not sys.sat(b.initial, s.label(s.initial)):
            err("def3", "initial behaviour state does not satisfy the initial "
                f"structure constraints {pretty(s.label(s.initial))!r}")
    return out


# ---------------------------------------------------------------------------
# Model DSL


_error = ModelError.at


def _end(toks, i) -> None:
    """The end-of-line check of every statement and section header."""
    if toks[i].kind != "EOF":
        raise _error(f"trailing {toks[i].text!r}", toks[i])


def _split_sections(text: str):
    """The system name and, per section, its kind, its header token and
    its non-blank token lines; each line is tokenized once."""
    name = None
    sections: list[tuple[str, Token, list[list[Token]]]] = []
    current: Optional[list[list[Token]]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            toks = tokenize(raw, first_line=lineno)
        except FormulaSyntaxError as exc:
            raise ModelError(exc.message, exc.line, exc.col) from exc
        head, i = toks[0], 1
        if head.kind == "EOF":
            continue
        if head.text == "system":
            if name is not None:
                raise _error("duplicate 'system' line", head)
            if toks[1].kind not in ("IDENT", "INT"):
                raise _error("expected 'system <id>'", toks[1])
            name, i = toks[1].text, 2
        elif head.text == "behaviour":
            if toks[1].text not in ("rules", "explicit"):
                raise _error("expected 'behaviour rules' or 'behaviour explicit'", toks[1])
            current = []
            sections.append(("behaviour " + toks[1].text, head, current))
            i = 2
        elif head.text in ("observables", "structure"):
            current = []
            sections.append((head.text, head, current))
        elif current is None:
            last = toks[-2]  # the line shown runs from its first to its last token
            line = raw[head.col - 1:last.col - 1 + len(last.text)]
            raise _error(f"unexpected line {line!r} before any section", head)
        else:
            current.append(toks)
            continue
        _end(toks, i)
    if name is None:
        raise ModelError("missing 'system <id>' line")
    return name, sections


def _expect(toks, i, text):
    if toks[i].text != text:
        raise _error(f"expected {text!r}, found {toks[i].text!r}", toks[i])
    return i + 1


def _state_id(toks, i) -> tuple[Token, int]:
    tok = toks[i]
    if tok.kind not in ("IDENT", "INT"):
        raise _error(f"expected a state id, found {tok.text!r}", tok)
    return tok, i + 1


def _int_bound(toks, i):
    sign = 1
    if toks[i].text == "-":
        sign, i = -1, i + 1
    if toks[i].kind != "INT":
        raise _error(f"expected an integer bound, found {toks[i].text!r}", toks[i])
    return sign * int(toks[i].text), i + 1


def _parse_observables(head: Token, lines) -> Signature:
    obs: list[tuple[str, Sort]] = []
    for toks in lines:
        if toks[0].kind != "IDENT":
            raise _error("expected '<name> : <sort>'", toks[0])
        i = _expect(toks, 1, ":")
        kind = toks[i]
        i += 1
        try:
            if kind.text == "bool":
                sort: Sort = BoolSort()
            elif kind.text == "int":
                lo, i = _int_bound(toks, i)
                i = _expect(toks, i, "..")
                hi, i = _int_bound(toks, i)
                sort = BoundedInt(lo, hi)
            elif kind.text == "enum":
                i = _expect(toks, i, "{")
                labels = []
                while toks[i].text != "}":
                    if toks[i].kind != "IDENT":
                        raise _error("expected an enum label", toks[i])
                    labels.append(toks[i].text)
                    i += 1
                    if toks[i].text == ",":
                        i += 1
                i += 1
                sort = EnumSort(tuple(labels))
            else:
                raise _error(f"unknown sort {kind.text!r}", kind)
        except ValueError as exc:  # an empty sort or a bad enum label
            raise _error(str(exc), kind) from exc
        _end(toks, i)
        obs.append((toks[0].text, sort))
    try:
        return Signature(obs)
    except ValueError as exc:
        raise _error(str(exc), head) from exc


def _parse_value(toks, i, sig, name: Token):
    if name.text not in sig:
        raise _error(f"unknown observable {name.text!r}", name)
    sort = sig.sort_of(name.text)
    tok = toks[i]
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
        raise _error(f"expected a value, found {tok.text!r}", tok)
    if not sort.contains(value):
        raise _error(f"value {value!r} not in sort of {name.text!r}", tok)
    return value, i


def _parse_assignments(toks, i, sig):
    """Parse ``name = value [, ...]`` and return the observation."""
    obs: dict[str, Value] = {}
    while True:
        name = toks[i]
        if name.kind != "IDENT":
            raise _error(f"expected an observable name, found {name.text!r}", name)
        i = _expect(toks, i + 1, "=")
        if name.text in obs:
            raise _error(f"observable {name.text!r} assigned twice", name)
        obs[name.text], i = _parse_value(toks, i, sig, name)
        if toks[i].text != ",":
            return obs, i
        i += 1


def _check_observation(sig, obs, tok: Token) -> None:
    try:
        sig.check_observation(obs)
    except ValueError as exc:
        raise _error(str(exc), tok) from exc


def _parse_formula_at(toks, i, sig, expect: str = "bool"):
    try:
        node, i, positions = parse_with(FORMULA_GRAMMAR, toks, i, sig)
        sort_check(node, sig, positions, expect=expect)
    except FormulaError as exc:
        raise ModelError(exc.message, exc.line, exc.col) from exc
    return node, i


def _parse_machine(head: Token, lines, where: str, parse_state, parse_trans):
    """The ``state``/``init``/``trans`` statements of an explicit behaviour
    or a structure section, whose header ``head`` names the level.

    ``parse_state(toks, i)`` reads a state's body after its id, and
    ``parse_trans(toks, i, source, target)`` a transition after its target;
    each returns what it read and the next index.  Returns the (id, body)
    pairs, the initial id and the transitions.
    """
    word = head.text
    states: dict[str, object] = {}
    init = None
    ends: list[tuple[Token, Token]] = []
    transitions = []
    for toks in lines:
        kw = toks[0]
        if kw.text == "state":
            sid, i = _state_id(toks, 1)
            if sid.text in states:
                raise _error(f"duplicate {word} state {sid.text!r}", sid)
            states[sid.text], i = parse_state(toks, i)
        elif kw.text == "init":
            if init is not None:
                raise _error("duplicate 'init'", kw)
            init, i = _state_id(toks, 1)
        elif kw.text == "trans":
            src, i = _state_id(toks, 1)
            dst, i = _state_id(toks, _expect(toks, i, "->"))
            tr, i = parse_trans(toks, i, src.text, dst.text)
            ends.append((src, dst))
            transitions.append(tr)
        else:
            raise _error(f"unexpected {kw.text!r} in {where}", kw)
        _end(toks, i)
    if init is None:
        raise _error(f"{word} section misses 'init'", head)
    if init.text not in states:
        raise _error(f"initial {word} state {init.text!r} undeclared", init)
    for src, dst in ends:
        for tok in (src, dst):
            if tok.text not in states:
                raise _error(f"dangling {word} transition {src.text} -> {dst.text}", tok)
    return states.items(), init.text, transitions


def _parse_behaviour_explicit(head: Token, lines, sig) -> BLevel:
    def observation(toks, i):
        start = toks[i]
        obs, i = _parse_assignments(toks, _expect(toks, i, "{"), sig)
        i = _expect(toks, i, "}")
        _check_observation(sig, obs, start)
        return obs, i

    states, initial, transitions = _parse_machine(
        head, lines, "explicit behaviour", observation,
        lambda toks, i, src, dst: ((src, dst), i))
    return BLevel([BState(q, obs) for q, obs in states], initial, transitions)


def _parse_structure(head: Token, lines, sig) -> SLevel:
    def label(toks, i):
        return _parse_formula_at(toks, _expect(toks, i, ":"), sig)

    def transition(toks, i, src, dst):
        if toks[i].text != "inv":
            raise _error("expected 'inv <formula>'", toks[i])
        inv, i = _parse_formula_at(toks, i + 1, sig)
        return STransition(src, inv, dst), i

    return SLevel(*_parse_machine(head, lines, "structure", label, transition))


def _parse_behaviour_rules(head: Token, lines, sig, max_states: int | None) -> BLevel:
    init_obs = None
    rules: list[GuardedRule] = []
    names: set[str] = set()
    for toks in lines:
        kw = toks[0]
        if kw.text == "init":
            if init_obs is not None:
                raise _error("duplicate 'init'", kw)
            init_obs, i = _parse_assignments(toks, 1, sig)
            _check_observation(sig, init_obs, toks[1])
        elif kw.text == "rule":
            rname = toks[1]
            if rname.kind != "IDENT":
                raise _error("expected a rule name", rname)
            if rname.text in names:
                raise _error(f"duplicate rule {rname.text!r}", rname)
            names.add(rname.text)
            guard, i = _parse_formula_at(toks, _expect(toks, 2, ":"), sig)
            i = _expect(toks, i, "->")
            updates: dict[str, Formula] = {}
            while True:
                target = toks[i]
                if target.kind != "IDENT":
                    raise _error("expected an update target", target)
                if target.text not in sig or not isinstance(sig.sort_of(target.text),
                                                            BoundedInt):
                    raise _error(f"update target {target.text!r} is not an integer "
                                 "observable", target)
                if target.text in updates:
                    raise _error(f"observable {target.text!r} updated twice", target)
                updates[target.text], i = _parse_formula_at(
                    toks, _expect(toks, i + 1, ":="), sig, expect="int")
                if toks[i].text != ",":
                    break
                i += 1
            rules.append(GuardedRule(rname.text, guard, tuple(updates.items())))
        else:
            raise _error(f"unexpected {kw.text!r} in rule behaviour", kw)
        _end(toks, i)
    if init_obs is None:
        raise _error("rule behaviour misses 'init'", head)
    return expand_rules(rules, sig, init_obs, max_states)


def parse_model(text: str, max_states: int | None = None) -> SBSystem:
    """Parse a model description; rule-based behaviours are expanded.

    Syntactic problems, duplicate ids, dangling endpoints and ill-sorted
    formulas raise ModelError, located at the line and column of the
    offending token.  Semantic well-formedness (in particular the
    initial-state condition) is reported by :func:`validate`.  A rule
    expansion past ``max_states`` raises :class:`StateBudgetError`.
    """
    name, sections = _split_sections(text)
    sig = None
    levels: dict[str, object] = {}
    for kind, head, lines in sections:
        word = head.text
        if word == "observables":
            if sig is not None:
                raise _error("duplicate observables section", head)
            sig = _parse_observables(head, lines)
            continue
        if sig is None:
            raise _error(f"{word} section before observables", head)
        if word in levels:
            raise _error(f"duplicate {word} section", head)
        if kind == "behaviour rules":
            levels[word] = _parse_behaviour_rules(head, lines, sig, max_states)
        elif kind == "behaviour explicit":
            levels[word] = _parse_behaviour_explicit(head, lines, sig)
        else:
            levels[word] = _parse_structure(head, lines, sig)
    if sig is None or len(levels) < 2:
        raise ModelError("model needs observables, behaviour and structure sections")
    return SBSystem(name, sig, levels["behaviour"], levels["structure"])


def load_model(path, max_states: int | None = None) -> SBSystem:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_model(fh.read(), max_states)
