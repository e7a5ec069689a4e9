"""Flat semantics of a two-level system.

The flat transition system runs over triples (q, r, phase) where q is the
active behaviour state, r the active structure state, and phase is empty when
the system is steady or records the invariant and target of the adaptation in
progress.  Successors are derived by five rules:

* Steady      - q and a behaviour successor q' both satisfy the current
                constraints; stay in r.
* AdaptStart  - every behaviour successor violates the current constraints
                and q can move; for a structure transition (r, inv, r'), any
                successor that meets inv but not yet the target constraints
                enters the adaptation phase.
* Adapt       - while adapting, if no behaviour successor satisfies the
                target constraints, any move preserving the invariant keeps
                adapting.
* AdaptEnd    - a behaviour successor satisfies the target constraints; the
                phase closes there.  This preempts Adapt, so phases end as
                soon as they can.
* AdaptStartEnd - adaptation must start but one move already reaches the
                target constraints; the invariant is skipped.

The rules run over interned ids.  The structure level names each phase by
its printed invariant and target, ranks the phases (by target, then printed
invariant) and lists the ones each structure state starts; behaviour and
structure ids are ranked in sorted order.  A flat state is the single int
``(q*R + r)*P + phase``, with phase 0 meaning steady; int order is the
canonical state order.  Formula satisfaction is read from the system's
table rows (``SBSystem.sat_row``).  A transition is labelled by its phase
rank, 0 when steady; its structure state is its source's.  ``_Rules``
counts the codes one exploration steps and holds it to its state budget.
``build_flat`` numbers the reached codes once, in canonical order, and
stores the reachable system as CSR arrays (offsets, phase ranks, targets)
over those numbers; ``FlatState`` objects, which carry phase names, are
decoded only for the views that ask for them.  ``flat_successors`` encodes
a ``FlatState``, runs the same rules and decodes the result.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterator, Optional

from .constraints import InputError, Record
from .model import SBSystem, StateBudgetError

Phase = tuple[str, str]  # (printed invariant, target structure state)
FlatLabel = Optional[Phase]  # None for a steady transition, else its phase


class PreconditionError(InputError, ValueError):
    """A root pair outside the system or violating its structure label."""


class FlatState(Record):
    __slots__ = ("q", "r", "phase")

    def __init__(self, q: str, r: str, phase: Optional[Phase] = None):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phase", phase)

    @property
    def is_steady(self) -> bool:
        return self.phase is None

    def __str__(self):
        if self.phase is None:
            return f"({self.q}, {self.r}, {{}})"
        inv, target = self.phase
        return f"({self.q}, {self.r}, {{({inv}, {target})}})"


class _Rules:
    """The five rules of one system over interned ids.

    A flat state is the int ``(q*R + r)*P + p`` of its behaviour rank ``q``,
    structure rank ``r`` and phase rank ``p`` (0 when steady), with ``R``
    structure states and ``P - 1`` phases.  Every rank follows the sorted
    ids, so int order is the canonical state order.  This class is the one
    place that knows the layout; the one property of it used elsewhere is
    that a code is steady exactly when it is a multiple of ``P``.  The
    satisfaction rows a structure state or a phase needs are fetched on its
    first visit.  One instance serves one exploration: it counts the codes
    it steps (``stepped``), and stepping one more than ``max_states``, when
    given, raises :class:`StateBudgetError` in the name of ``layer``.
    """

    def __init__(self, sys: SBSystem, max_states: int | None = None,
                 layer: str = "build_flat"):
        self.sys = sys
        self.stepped = 0
        self.budget = float("inf") if max_states is None else max_states
        self.layer = layer
        self.succ = sys.b.succ_ranks
        self.P = len(sys.s.phases)
        self.RP = len(sys.s.ids) * self.P
        self._steady: list = [None] * len(sys.s.ids)
        self._phase: list = [None] * self.P

    def _phase_rules(self, p: int):
        """(invariant row, target steady offset, target label row) of phase ``p``."""
        hit = self._phase[p]
        if hit is None:
            sys, s = self.sys, self.sys.s
            target = s.phases[p][1]
            hit = self._phase[p] = (sys.sat_row(s.phase_inv[p]), s.rank[target] * self.P,
                                    sys.sat_row(s.label(target)))
        return hit

    def _steady_rules(self, r: int):
        """The label row of structure state ``r`` and its outgoing phases."""
        hit = self._steady[r]
        if hit is None:
            s = self.sys.s
            hit = self._steady[r] = (self.sys.sat_row(s.label(s.ids[r])),
                                     [(p, *self._phase_rules(p)) for p in s.phase_starts[r]])
        return hit

    def step(self, code: int) -> list[tuple[int, list[int]]]:
        """The successors of flat state ``code`` as (label, targets) groups.

        A label is the phase rank of the transition (0 for Steady) and goes
        with the source's structure state.  Groups come in label order and
        targets ascend within a group, which is the canonical order.
        """
        self.stepped += 1
        if self.stepped > self.budget:
            raise StateBudgetError(self.layer, self.budget, "flat states")
        RP = self.RP
        q, rest = divmod(code, RP)  # rest = r*P + p
        r, p = divmod(rest, self.P)
        succ = self.succ[q]
        if p == 0:
            label_r, starts = self._steady_rules(r)
            if not label_r[q]:
                return []
            steady = [q2 * RP + rest for q2 in succ if label_r[q2]]
            if steady:
                return [(0, steady)]                               # Steady
            out = []
            for p2, inv, end, label_t in starts:
                mid = rest + p2
                # AdaptStartEnd where the target constraints hold, else AdaptStart
                ts = [q2 * RP + (end if label_t[q2] else mid)
                      for q2 in succ if label_t[q2] or inv[q2]]
                if ts:
                    out.append((p2, ts))
            return out
        inv, end, label_t = self._phase_rules(p)
        if not inv[q] or label_t[q]:
            return []
        ends = [q2 * RP + end for q2 in succ if label_t[q2]]
        if ends:
            return [(p, ends)]                                     # AdaptEnd
        mids = [q2 * RP + rest for q2 in succ if inv[q2]]
        return [(p, mids)] if mids else []                         # Adapt

    def encode(self, f: FlatState) -> int:
        p = 0 if f.phase is None else self.sys.s.phase_rank.get(f.phase)
        if p is None:
            raise ValueError(f"{f} is in no phase of the system")
        return self.steady(f.q, f.r) + p

    def steady(self, q: str, r: str) -> int:
        """The code of the steady flat state (q, r, {})."""
        return self.sys.b.rank[q] * self.RP + self.sys.s.rank[r] * self.P

    def steady_codes(self) -> range:
        """Every steady code, ascending: by behaviour rank, then structure rank."""
        return range(0, len(self.succ) * self.RP, self.P)

    def pair(self, code: int) -> tuple[str, str]:
        """The behaviour and structure ids of flat state ``code``."""
        q, rest = divmod(code, self.RP)
        return self.sys.b.ids[q], self.sys.s.ids[rest // self.P]

    def decode(self, code: int) -> FlatState:
        return FlatState(*self.pair(code), self.sys.s.phases[code % self.P])


def flat_successors(sys: SBSystem, f: FlatState) -> list[tuple[FlatLabel, FlatState]]:
    """All rule-derivable successors of ``f``, deduplicated, in canonical order."""
    rules = _Rules(sys)
    phases = sys.s.phases
    return [(phases[p], rules.decode(t))
            for p, ts in rules.step(rules.encode(f)) for t in ts]


class FlatLts:
    """Reachable flat transition system, with canonical state ordering.

    The system is held in CSR form over dense indices: state ``i`` is the
    ``i``-th reachable state in canonical order, with int code ``codes[i]``;
    its transitions are ``(labels[e], targets[e])`` for ``e`` in
    ``offsets[i]:offsets[i + 1]``, in canonical (label, target) order.  A
    label is a phase rank, 0 for a steady step; a transition's structure
    state is its source's.  ``FlatState`` objects and phases are decoded on
    demand; ``states`` is built on first access.
    """

    def __init__(self, system: SBSystem, rules: _Rules, initial_index: int,
                 codes: list[int], offsets: list[int], labels: list[int],
                 targets: list[int]):
        self.system = system
        self._rules = rules
        self.codes = codes
        self.offsets = offsets
        self.labels = labels
        self.targets = targets
        self.initial_index = initial_index
        self.initial = rules.decode(codes[initial_index])

    def state(self, i: int) -> FlatState:
        return self._rules.decode(self.codes[i])

    @cached_property
    def states(self) -> tuple[FlatState, ...]:
        return tuple(map(self._rules.decode, self.codes))

    def edges(self) -> Iterator[tuple[int, FlatLabel, int]]:
        """(source index, label, target index) of every transition, in order."""
        phases, offsets = self.system.s.phases, self.offsets
        for i in range(len(self.codes)):
            for e in range(offsets[i], offsets[i + 1]):
                yield i, phases[self.labels[e]], self.targets[e]

    def dead_states(self) -> tuple[FlatState, ...]:
        off = self.offsets
        return tuple(self.state(i) for i in range(len(self.codes))
                     if off[i] == off[i + 1])

    @property
    def n_states(self) -> int:
        return len(self.codes)

    @property
    def n_transitions(self) -> int:
        return len(self.targets)


def build_flat(sys: SBSystem, root: tuple[str, str] | None = None,
               max_states: int | None = None) -> FlatLts:
    """Reachable closure of the flat semantics.

    By default exploration starts at the initial steady state; ``root``
    seeds it at an arbitrary steady (q, r, {}) instead, which need not be
    reachable from the initial state; q must satisfy the label of r (else
    :class:`PreconditionError`).  Reaching more than ``max_states`` states,
    when given, raises :class:`StateBudgetError`.
    """
    if root is None:
        root = (sys.b.initial, sys.s.initial)
    q, r = root
    if q not in sys.b.states or r not in sys.s.states:
        raise PreconditionError(f"unknown root pair ({q!r}, {r!r})")
    if not sys.sat(q, sys.s.label(r)):
        raise PreconditionError(f"behaviour state {q!r} does not satisfy the constraints of {r!r}")
    rules = _Rules(sys, max_states)
    c0 = rules.steady(q, r)
    # each reached code's transitions as a slice of the stepped arrays; kept
    # rule groups would be traced by every full GC pass, slices are not
    found: dict[int, tuple[int, int]] = {}
    stepped_labels: list[int] = []
    stepped_targets: list[int] = []
    stack = [c0]
    while stack:
        code = stack.pop()
        if code in found:
            continue
        a = len(stepped_targets)
        for p, ts in rules.step(code):
            stepped_labels += [p] * len(ts)
            stepped_targets += ts
            stack += ts
        found[code] = a, len(stepped_targets)
    # number the reached codes in canonical order and copy each slice there
    codes = sorted(found)
    index = dict(zip(codes, range(len(codes))))
    offsets = [0]
    labels: list[int] = []
    targets: list[int] = []
    for code in codes:
        a, b = found[code]
        labels += stepped_labels[a:b]
        targets += stepped_targets[a:b]
        offsets.append(len(targets))
    targets = list(map(index.__getitem__, targets))
    return FlatLts(sys, rules, index[c0], codes, offsets, labels, targets)


# ---------------------------------------------------------------------------
# Exports


def _dot_id(f: FlatState) -> str:
    return '"%s"' % str(f).replace('"', r"\"")


def to_dot(flat: FlatLts) -> str:
    """Graphviz rendering; steady states filled, adapting states hollow."""
    lines = ["digraph flat {", "  rankdir=LR;", '  node [shape=ellipse];']
    ids = [_dot_id(f) for f in flat.states]
    for i, f in enumerate(flat.states):
        style = "filled" if f.is_steady else "solid"
        marks = ' peripheries=2' if i == flat.initial_index else ""
        lines.append(f"  {ids[i]} [style={style}{marks}];")
    for i, lab, j in flat.edges():
        r = flat.states[i].r
        text = r if lab is None else f"{r},{lab[0]},{lab[1]}"
        text = text.replace('"', r"\"")
        lines.append(f'  {ids[i]} -> {ids[j]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def state_json(f: FlatState) -> dict:
    phase = None if f.phase is None else {"inv": f.phase[0], "target": f.phase[1]}
    return {"q": f.q, "r": f.r, "phase": phase}


def to_json(flat: FlatLts) -> str:
    """JSON rendering with stable key order."""
    doc = {
        "system": flat.system.name,
        "initial": flat.initial_index,
        "states": [state_json(f) for f in flat.states],
        "transitions": [
            {
                "from": i,
                "label": (
                    {"kind": "steady", "r": flat.states[i].r}
                    if lab is None
                    else {"kind": "adapt", "r": flat.states[i].r,
                          "inv": lab[0], "target": lab[1]}
                ),
                "to": j,
            }
            for i, lab, j in flat.edges()
        ],
    }
    return json.dumps(doc, indent=2)
