"""Weak and strong adaptability, decided two independent ways.

The logical route model-checks two fixed CTL formulas on the derived Kripke
structure:

    weak:   EG((adapting => EF steady) && progress)
    strong: AG((adapting => AF steady) && progress)

Both unbudgeted verdicts on one system share one Kripke structure rooted at
the initial state: the first of ``check_weak`` and ``check_strong`` builds
it, and the system keeps it, with the flat codes of its states and one
decoded lasso per satisfaction set searched, in a weak-keyed memo.  Nothing
in it refers to the system (decoded states hold ids and phase names, all
strings), so the memo dies with the system by reference counting.  The CTL
searches walk sets handed to them: a holding verdict's witness walks its
formula's set, which is every state for both formulas when the strong one
holds, so the second verdict reuses the first one's lasso.  The search
computes the region of its set only when the root lies on no cycle;
searches inside the whole set find the same lasso (``ctl.witness_eg`` says
why).  A failing verdict's run leaves the ``progress`` atom or the inner
formula's set and may go on inside the set of ``EG !steady``.  Per-pair queries
(``state_adaptable``) rebuild the flat semantics from their pair, and the
relational route never reads this memo; it keeps one of its own.

The relational route builds adaptation relations over behaviour/structure
state pairs directly from the flat semantics:

* a weak adaptation relation requires each related pair to progress, to have
  some related steady successor when steady moves exist, and to complete some
  adaptation phase on a related pair when adaptation can start;
* a strong adaptation relation requires all steady successors related and
  every adaptation phase to terminate, on related pairs only.

Steady preempts adaptation, so a pair has one successor set: its steady
successors, or else its phases' endpoints.  ``weak_relation`` and
``greatest_strong_relation`` compute the largest such relations within the
progressing grid pairs, each by one backward fixpoint of ``graph`` over the
pairs whose successor sets contain a pair.  Weak deletes a pair once its set
misses the relation, an A-until: ``graph.attractor`` from the pairs whose
set holds no progressing grid pair, a pair joining once all its successors
have.  Strong drops each pair whose set leads to a pair breaking a clause
against them all, an E-until: ``graph.reach`` back from those pairs (a
phase's dead ends and cycles do not depend on the relation, and the phases
end on related pairs when the set lies inside it).  ``strong_relation``
instead checks the pairs reached from the initial pair by steady steps and
completed phases (the reachable steady states), which carry strong
adaptability of the whole system.

The relational route runs on the flat codes of ``flatten._Rules``: a state
pair is keyed by the code of its steady flat state.  The unbudgeted entry
points of one system share its tables, in codes only, in a weak-keyed memo
(``_relations``), so each flat state is stepped at most once over all of
them.  In both routes a call given ``max_states`` neither reads nor fills a
memo: it runs on a structure or on ``_Analysis`` tables of its own, and its
``_Rules`` raises ``StateBudgetError`` past that many steps.
``strong_relation`` draws its candidate from the analysis that checks it.
Pair facts are memoised, and so are phase facts (steady endpoints, a
reachable dead end, a cycle) by adapting start state, each from one
``graph.reach`` pass that also finds the phase's cycle states, and the
pairs whose successor sets contain each pair; the fixpoints read the
memoised facts directly.  Codes are decoded to id pairs, by
``_Rules.pair``, only for the returned relation and for violation messages.
The relational route builds no flat system and never calls the CTL
checker; the CTL verdicts never call the relation code.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from itertools import chain, compress
from typing import Iterable, Iterator, Literal, NamedTuple, Optional

from .constraints import Record
from .ctl import (
    Kripke,
    Lasso,
    ag,
    counterexample_ag,
    eg,
    parse_ctl,
    sat_set,
    witness_eg,
)
from .flatten import PreconditionError, _Rules, build_flat  # noqa: F401  (re-exported)
# the benchmark's tracer (perfbench/spans.py) wraps adapt.flat_successors
from .flatten import flat_successors  # noqa: F401
from .graph import attractor, reach
from .kripke import to_kripke
from .model import SBSystem

WEAK_INNER = parse_ctl("(adapting => EF steady) && progress")
STRONG_INNER = parse_ctl("(adapting => AF steady) && progress")
WEAK_FORMULA = eg(WEAK_INNER)  # EG((adapting => EF steady) && progress)
STRONG_FORMULA = ag(STRONG_INNER)  # AG((adapting => AF steady) && progress)
NEVER_STEADY = parse_ctl("EG !steady")


Pair = tuple[str, str]


class AdaptRelation(Record):
    """A set of (behaviour state, structure state) pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: frozenset[Pair]):
        object.__setattr__(self, "pairs", pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self):
        return len(self.pairs)

    @staticmethod
    def of(pairs: Iterable[Pair]) -> "AdaptRelation":
        return AdaptRelation(frozenset(pairs))


class Violation(Record):
    __slots__ = ("pair", "clause", "message")

    def __init__(self, pair: Pair, clause: str, message: str):
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "clause", clause)  # "i" | "ii" | "iii"
        object.__setattr__(self, "message", message)

    def __str__(self):
        return f"({self.pair[0]}, {self.pair[1]}) clause ({self.clause}): {self.message}"


class RelationCheck(Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)


Evidence = Lasso  # a verdict's run of decoded FlatStates; a plain path has no cycle


class Verdict(Record):
    __slots__ = ("holds", "evidence")

    def __init__(self, holds: bool, evidence: Evidence):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "evidence", evidence)


# ---------------------------------------------------------------------------
# Flat-semantics analysis shared by the relational checks


class _PhaseFacts(NamedTuple):
    p: int                          # phase rank, for violation messages
    endpoints: frozenset[int]       # steady pairs completed phases land on
    has_dead: bool                  # a successor-free adapting state is reachable
    has_cycle: bool                 # the phase subgraph has a cycle


class _PairFacts(NamedTuple):
    pair: int                       # the pair's steady flat code
    progress: bool
    next: frozenset[int]            # the steady successors, or else all endpoints
    phases: tuple[_PhaseFacts, ...]


class _Tables:
    """The memo of one system's relation analyses, in flat codes only."""

    def __init__(self):
        self.succ: dict[int, list[int]] = {}
        self.starts: dict[int, tuple[frozenset[int], bool, bool]] = {}
        self.facts: dict[int, _PairFacts] = {}
        self.index: Optional[tuple[list[int], dict[int, list[int]]]] = None


# the tables of a system go when the system does: they never refer to it
_relations: "weakref.WeakKeyDictionary[SBSystem, _Tables]" = weakref.WeakKeyDictionary()


class _Analysis:
    """Phase facts of one system over the flat codes of ``_Rules``.

    A state pair is keyed by its steady flat code, so int order is the
    order of the id pairs, and a steady successor or phase endpoint is
    already the pair it lands on.  The successors of adapting states are
    memoised, and so are the facts of every pair and of every adapting state
    that starts a phase: all pairs entering one phase share its exploration.
    Unbudgeted analyses of one system share its ``_Tables``; one given
    ``max_states`` starts empty tables, and its ``rules`` raise
    :class:`StateBudgetError` past that many codes stepped (``rules.stepped``,
    grid pairs and adapting states alike).
    """

    def __init__(self, sys: SBSystem, max_states: int | None = None):
        self.sys = sys
        self.rules = _Rules(sys, max_states, "relation route")
        self.P = self.rules.P
        t = self.tables = (_relations.setdefault(sys, _Tables()) if max_states is None
                           else _Tables())
        self._succ, self._starts, self._facts = t.succ, t.starts, t.facts

    def grid(self) -> list[int]:
        """The steady codes of the satisfaction-grid pairs (q satisfies the
        label of r), ascending: the label rows read across, rank by rank."""
        s = self.sys.s
        rows = [self.sys.sat_row(s.label(r)) for r in s.ids]
        return list(compress(self.rules.steady_codes(), chain.from_iterable(zip(*rows))))

    def sorted_pairs(self, codes) -> list[Pair]:
        return [self.rules.pair(c) for c in sorted(codes)]

    def phase_label(self, pf: _PairFacts, ph: _PhaseFacts) -> str:
        return f"{self.rules.pair(pf.pair)[1]} -> {self.sys.s.phases[ph.p][1]}"

    def _targets(self, code: int) -> list[int]:
        """The successors of adapting state ``code``: all steady after an
        AdaptEnd step, all adapting after an Adapt step."""
        hit = self._succ.get(code)
        if hit is None:
            groups = self.rules.step(code)
            hit = self._succ[code] = groups[0][1] if groups else []
        return hit

    def _adapting(self, code: int) -> list[int]:
        ts = self._targets(code)
        return ts if ts and ts[0] % self.P else []

    def _start(self, code: int) -> tuple[frozenset[int], bool, bool]:
        """(endpoints, has_dead, has_cycle) of the phase run from first state
        ``code``; a steady one (AdaptStartEnd) is its own endpoint."""
        if code % self.P == 0:
            return frozenset((code,)), False, False
        hit = self._starts.get(code)
        if hit is None:
            cycles: set[int] = set()
            nodes = reach(self._adapting, (code,), cyclic=cycles)
            ends: set[int] = set()
            dead = False
            for x in nodes:
                ts = self._targets(x)
                if not ts:
                    dead = True
                elif ts[0] % self.P == 0:
                    ends.update(ts)
            hit = self._starts[code] = frozenset(ends), dead, bool(cycles)
        return hit

    def facts(self, pair: int) -> _PairFacts:
        """The facts of grid pair ``pair``, memoised: its successor set (a
        steady group comes alone) and, per adaptation label, the merged
        phase facts of its first states."""
        hit = self._facts.get(pair)
        if hit is not None:
            return hit
        groups = self.rules.step(pair)
        if groups and not groups[0][0]:
            hit = self._facts[pair] = _PairFacts(pair, True, frozenset(groups[0][1]), ())
            return hit
        nxt: frozenset[int] = frozenset()
        phases = []
        for p, ts in groups:
            part_ends, dead, cycle = zip(*map(self._start, ts))
            # one union, linear in the starts' endpoints; a lone start's set is shared
            ends = part_ends[0] if len(part_ends) == 1 else frozenset().union(*part_ends)
            phases.append(_PhaseFacts(p, ends, any(dead), any(cycle)))
            nxt = nxt | ends if nxt else ends
        hit = self._facts[pair] = _PairFacts(pair, bool(groups), nxt, tuple(phases))
        return hit

    def index(self) -> tuple[list[int], dict[int, list[int]]]:
        """The progressing grid pairs, and for each pair the pairs whose
        successor sets contain it; mode-free, so memoised.  Every grid pair
        then has its facts in ``tables.facts``."""
        t = self.tables
        if t.index is None:
            pairs: list[int] = []
            mentioned_by: defaultdict[int, list[int]] = defaultdict(list)
            for pair, progress, nxt, _ in map(self.facts, self.grid()):
                if progress:
                    pairs.append(pair)
                    for other in nxt:
                        mentioned_by[other].append(pair)
            t.index = pairs, mentioned_by
        return t.index


# ---------------------------------------------------------------------------
# Relation construction


def _weak_violations(an: _Analysis, pf: _PairFacts, rel) -> Iterator[tuple[str, str]]:
    """Weak clause (ii) or (iii), with its message, when no successor is related."""
    if pf.next.isdisjoint(rel):
        if pf.phases:
            yield "iii", "no adaptation phase completes on a related pair"
        else:
            yield "ii", "no steady successor lands on a related pair"


def _strong_violations(an: _Analysis, pf: _PairFacts, rel) -> Iterator[tuple[str, str]]:
    """Strong clauses (ii) and (iii) that ``pf`` breaks, with their messages."""
    missing = frozenset() if pf.phases else pf.next - rel
    if missing:
        yield "ii", f"steady successors {an.sorted_pairs(missing)} unrelated"
    for ph in pf.phases:
        label = an.phase_label(pf, ph)
        if ph.has_dead:
            yield "iii", f"phase {label} can dead-end while adapting"
        if ph.has_cycle:
            yield "iii", f"phase {label} admits an infinite adaptation path"
        ends = ph.endpoints - rel
        if ends:
            yield "iii", f"phase {label} ends on unrelated pairs {an.sorted_pairs(ends)}"


def _breaks_strong(pf: _PairFacts, rel) -> bool:
    """Whether ``_strong_violations`` yields a clause, told without naming
    it: an unrelated successor is an unrelated steady successor (ii) or
    phase end (iii), and a phase can also dead-end or cycle (iii)."""
    return not pf.next <= rel or bool(pf.phases) and any(
        ph.has_dead or ph.has_cycle for ph in pf.phases)


def weak_relation(sys: SBSystem, max_states: int | None = None) -> AdaptRelation:
    """Greatest weak adaptation relation over the whole state grid.

    Starts from every pair whose behaviour state satisfies the structure
    constraints and can progress, then deletes pairs whose steady moves all
    leave the relation or whose adaptation phases never complete on a related
    pair, until nothing changes: the deleted pairs are the ``graph.attractor``
    of the pairs with no successor in the relation, backward over the pairs
    whose successor sets contain each pair.  Stepping more than
    ``max_states`` flat states, when given, raises :class:`StateBudgetError`.
    """
    an = _Analysis(sys, max_states)
    pairs, mentioned_by = an.index()
    live, facts = set(pairs), an.tables.facts
    # the successors that can still keep each pair; a pair leaves at none,
    # and the successors outside the progressing grid are gone from the start
    remaining = {pair: len(facts[pair].next) for pair in pairs}
    left = attractor(lambda pair: mentioned_by.get(pair, ()), remaining,
                     [pair for pair, n in remaining.items() if not n]
                     + [other for other in mentioned_by if other not in live])
    return AdaptRelation(frozenset(map(an.rules.pair, live - left)))


def greatest_strong_relation(sys: SBSystem,
                             max_states: int | None = None) -> AdaptRelation:
    """Greatest strong adaptation relation over the whole state grid, under
    ``max_states`` as in :func:`weak_relation`: the progressing grid pairs
    whose successor sets lead to no pair breaking a clause against them."""
    an = _Analysis(sys, max_states)
    pairs, mentioned_by = an.index()
    live = set(pairs)
    seeds = [pf.pair for pf in map(an.tables.facts.__getitem__, pairs)
             if _breaks_strong(pf, live)]
    live -= reach(lambda pair: mentioned_by.get(pair, ()), seeds)
    return AdaptRelation(frozenset(map(an.rules.pair, live)))


def strong_relation(sys: SBSystem,
                    max_states: int | None = None) -> Optional[AdaptRelation]:
    """The reachable-steady-pairs candidate, if it is a strong adaptation.

    The candidate is the set of pairs reached from the initial pair by
    steady steps and completed phases, the reachable steady states of the
    flat semantics; it is a strong adaptation relation exactly when the
    system is strong adaptable, so the result is absent otherwise.  One
    analysis, under ``max_states`` as in :func:`weak_relation`, both draws
    the candidate and checks it, on codes, up to its first broken clause: a
    pair breaking its own label steps to nothing, so progress covers (i).
    """
    an = _Analysis(sys, max_states)
    facts = an.tables.facts
    reached = reach(lambda pair: (facts.get(pair) or an.facts(pair)).next,
                    (an.rules.steady(sys.b.initial, sys.s.initial),))
    broken = any(not pf.progress or _breaks_strong(pf, reached)
                 for pf in map(facts.__getitem__, reached))
    return None if broken else AdaptRelation(frozenset(map(an.rules.pair, reached)))


# ---------------------------------------------------------------------------
# Relation verification


def _check(sys: SBSystem, rel: AdaptRelation, violations,
           an: _Analysis) -> RelationCheck:
    """Clause (i) for every pair of ``rel``, then the mode's ``violations``."""
    for q, r in rel.pairs:
        if q not in sys.b.states:
            raise PreconditionError(f"unknown behaviour state {q!r} in relation")
        if r not in sys.s.states:
            raise PreconditionError(f"unknown structure state {r!r} in relation")
    codes = {an.rules.steady(q, r) for q, r in rel.pairs}
    found: list[Violation] = []
    for q, r in sorted(rel.pairs):
        if not sys.sat(q, sys.s.label(r)):
            found.append(Violation((q, r), "i", "constraints not satisfied"))
            continue
        pf = an.facts(an.rules.steady(q, r))
        if not pf.progress:
            found.append(Violation((q, r), "i", "no flat successor (progress fails)"))
            continue
        found.extend(Violation((q, r), clause, message)
                     for clause, message in violations(an, pf, codes))
    return RelationCheck(not found, tuple(found))


def is_weak_adaptation(sys: SBSystem, rel: AdaptRelation,
                       max_states: int | None = None) -> RelationCheck:
    """Check the weak adaptation clauses for every pair of ``rel``, under
    ``max_states`` as in :func:`weak_relation`."""
    return _check(sys, rel, _weak_violations, _Analysis(sys, max_states))


def is_strong_adaptation(sys: SBSystem, rel: AdaptRelation,
                         max_states: int | None = None) -> RelationCheck:
    """Check the strong adaptation clauses for every pair of ``rel``, under
    ``max_states`` as in :func:`weak_relation`."""
    return _check(sys, rel, _strong_violations, _Analysis(sys, max_states))


# ---------------------------------------------------------------------------
# CTL-side verdicts


def _failing_evidence(k: Kripke, inner, t0: int) -> Lasso:
    """A run from ``t0`` showing how the checked property degenerates.

    Prefers a shortest path to a dead state (a progress violation, reported
    with its self-loop); otherwise takes a shortest path to a state violating
    the inner formula and, when that violation is a broken eventuality,
    extends the run with a never-steady lasso.  Either way the reported run
    ends in a dead state's self-loop or an adapting cycle.
    """
    path = counterexample_ag(k, k.atoms["progress"], t0)
    if path:
        return Lasso(path[:-1], path[-1:])
    path = counterexample_ag(k, sat_set(k, inner), t0)
    never_steady = sat_set(k, NEVER_STEADY)
    if path[-1] not in never_steady:
        return Lasso(path, ())
    lasso = witness_eg(k, never_steady, path[-1])
    return Lasso(path[:-1] + lasso.prefix, lasso.cycle)


_Entry = tuple[Kripke, list[int], dict[frozenset[int], Evidence]]
# the entry of a system goes when the system does
_structures: "weakref.WeakKeyDictionary[SBSystem, _Entry]" = weakref.WeakKeyDictionary()


def _initial_kripke(sys: SBSystem, max_states: int | None) -> _Entry:
    """The Kripke structure of the flat semantics rooted at the initial
    state, the flat codes of its states, and the decoded witness of each
    satisfaction set a holding verdict has searched, keyed by that set.

    Built once per system and memoised; a call given ``max_states`` builds
    its own under that budget, as ``_Analysis`` does, and memoises nothing.
    """
    memo = _structures if max_states is None else {}
    hit = memo.get(sys)
    if hit is None:
        flat = build_flat(sys, max_states=max_states)
        hit = memo[sys] = (to_kripke(flat), flat.codes, {})
    return hit


def _decoded(sys: SBSystem, codes: list[int], run: Lasso) -> Evidence:
    """``run``, over states with flat codes ``codes``, as decoded flat states."""
    decode = _Rules(sys).decode
    return Lasso(*(tuple(decode(codes[i]) for i in part)
                   for part in (run.prefix, run.cycle)))


def _verdict(sys: SBSystem, formula, inner, max_states: int | None) -> Verdict:
    k, codes, witnesses = _initial_kripke(sys, max_states)
    sat = sat_set(k, formula)
    if k.initial not in sat:
        return Verdict(False, _decoded(sys, codes, _failing_evidence(k, inner, k.initial)))
    # the witness walks the formula's own set: the weak formula is EG of its
    # inner formula, and when the strong AG holds at the root, every state of
    # k (all reachable from the root) satisfies AG, hence EG, of the inner
    # formula, so both sets are all of k and the second verdict reuses the
    # first one's lasso
    evidence = witnesses.get(sat)
    if evidence is None:
        evidence = witnesses[sat] = _decoded(sys, codes, witness_eg(k, sat, k.initial))
    return Verdict(True, evidence)


def check_weak(sys: SBSystem, max_states: int | None = None) -> Verdict:
    """Whether the system is weak adaptable, with a witness or counterexample.

    ``max_states`` bounds the flat build, which ``check_strong`` on the same
    system shares.
    """
    return _verdict(sys, WEAK_FORMULA, WEAK_INNER, max_states)


def check_strong(sys: SBSystem, max_states: int | None = None) -> Verdict:
    """Whether the system is strong adaptable, with supporting evidence.

    ``max_states`` bounds the flat build, which ``check_weak`` on the same
    system shares.
    """
    return _verdict(sys, STRONG_FORMULA, STRONG_INNER, max_states)


def state_adaptable(sys: SBSystem, q: str, r: str,
                    mode: Literal["weak", "strong"]) -> bool:
    """Per-state adaptability by the CTL route, seeded at (q, r, {}).

    The flat semantics is rebuilt from that steady state, so the query works
    for pairs unreachable from the initial state.  Requires q to satisfy the
    constraints of r, as ``build_flat`` does (:class:`PreconditionError`).
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    k = to_kripke(build_flat(sys, root=(q, r)))
    phi = WEAK_FORMULA if mode == "weak" else STRONG_FORMULA
    return k.initial in sat_set(k, phi)
