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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .constraints import Formula, pretty
from .model import SBSystem

Phase = tuple[Formula, str]  # (invariant, target structure state)


@dataclass(frozen=True)
class FlatState:
    q: str
    r: str
    phase: Optional[Phase] = None

    @property
    def is_steady(self) -> bool:
        return self.phase is None

    def __str__(self):
        if self.phase is None:
            return f"({self.q}, {self.r}, {{}})"
        inv, target = self.phase
        return f"({self.q}, {self.r}, {{({pretty(inv)}, {target})}})"


@dataclass(frozen=True)
class SteadyIn:
    r: str


@dataclass(frozen=True)
class AdaptPhase:
    r: str
    inv: Formula
    target: str


FlatLabel = SteadyIn | AdaptPhase


def _label_key(label: FlatLabel):
    if isinstance(label, SteadyIn):
        return (0, label.r, "", "")
    return (1, label.r, label.target, pretty(label.inv))


def _state_key(f: FlatState):
    if f.phase is None:
        return (f.q, f.r, "", "")
    inv, target = f.phase
    return (f.q, f.r, target, pretty(inv))


def flat_successors(sys: SBSystem, f: FlatState) -> list[tuple[FlatLabel, FlatState]]:
    """All rule-derivable successors of ``f``, deduplicated, in canonical order."""
    out: set[tuple[FlatLabel, FlatState]] = set()
    b, s = sys.b, sys.s
    succs = b.successors(f.q)
    if f.phase is None:
        label_r = s.label(f.r)
        if not sys.sat(f.q, label_r):
            return []
        steady = [q2 for q2 in succs if sys.sat(q2, label_r)]
        if steady:
            lab = SteadyIn(f.r)
            for q2 in steady:
                out.add((lab, FlatState(q2, f.r, None)))
        elif succs:
            # adaptation may start: every successor violates the constraints
            for tr in s.transitions_from(f.r):
                lab = AdaptPhase(f.r, tr.inv, tr.target)
                label_t = s.label(tr.target)
                for q2 in succs:
                    if sys.sat(q2, label_t):
                        out.add((lab, FlatState(q2, tr.target, None)))
                    elif sys.sat(q2, tr.inv):
                        out.add((lab, FlatState(q2, f.r, (tr.inv, tr.target))))
    else:
        inv, target = f.phase
        label_t = s.label(target)
        if sys.sat(f.q, inv) and not sys.sat(f.q, label_t):
            lab = AdaptPhase(f.r, inv, target)
            ends = [q2 for q2 in succs if sys.sat(q2, label_t)]
            if ends:
                for q2 in ends:
                    out.add((lab, FlatState(q2, target, None)))
            else:
                for q2 in succs:
                    if sys.sat(q2, inv):
                        out.add((lab, FlatState(q2, f.r, (inv, target))))
    return sorted(out, key=lambda p: (_label_key(p[0]), _state_key(p[1])))


class FlatLts:
    """Reachable flat transition system, with canonical state ordering."""

    def __init__(self, system: SBSystem, initial: FlatState,
                 states: list[FlatState],
                 transitions: list[tuple[FlatState, FlatLabel, FlatState]]):
        self.system = system
        self.initial = initial
        self.states = tuple(sorted(states, key=_state_key))
        self.index = {f: i for i, f in enumerate(self.states)}
        # each state's transitions arrive in canonical (label, target) order
        succ: dict[FlatState, list[tuple[FlatLabel, FlatState]]] = {
            f: [] for f in self.states}
        for src, lab, dst in transitions:
            succ[src].append((lab, dst))
        self._succ = {f: tuple(ts) for f, ts in succ.items()}
        self.transitions = tuple((f, lab, g) for f in self.states
                                 for lab, g in self._succ[f])

    def successors(self, f: FlatState) -> tuple[tuple[FlatLabel, FlatState], ...]:
        return self._succ[f]

    def steady_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((f.q, f.r) for f in self.states if f.is_steady)

    def dead_states(self) -> tuple[FlatState, ...]:
        return tuple(f for f in self.states if not self._succ[f])

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)


def build_flat(sys: SBSystem, root: tuple[str, str] | None = None) -> FlatLts:
    """Reachable closure of the flat semantics.

    By default exploration starts at the initial steady state; ``root``
    seeds it at an arbitrary steady (q, r, {}) instead, which need not be
    reachable from the initial state.
    """
    if root is None:
        f0 = FlatState(sys.b.initial, sys.s.initial, None)
    else:
        q, r = root
        if q not in sys.b.states or r not in sys.s.states:
            raise ValueError(f"unknown root pair ({q!r}, {r!r})")
        f0 = FlatState(q, r, None)
    states = [f0]
    seen = {f0}
    transitions: list[tuple[FlatState, FlatLabel, FlatState]] = []
    queue = [f0]
    while queue:
        f = queue.pop()
        for lab, g in flat_successors(sys, f):
            transitions.append((f, lab, g))
            if g not in seen:
                seen.add(g)
                states.append(g)
                queue.append(g)
    return FlatLts(sys, f0, states, transitions)


# ---------------------------------------------------------------------------
# Exports


def _dot_id(f: FlatState) -> str:
    return '"%s"' % str(f).replace('"', r"\"")


def to_dot(flat: FlatLts) -> str:
    """Graphviz rendering; steady states filled, adapting states hollow."""
    lines = ["digraph flat {", "  rankdir=LR;", '  node [shape=ellipse];']
    for f in flat.states:
        style = "filled" if f.is_steady else "solid"
        marks = ' peripheries=2' if f == flat.initial else ""
        lines.append(f"  {_dot_id(f)} [style={style}{marks}];")
    for src, lab, dst in flat.transitions:
        if isinstance(lab, SteadyIn):
            text = lab.r
        else:
            text = f"{lab.r},{pretty(lab.inv)},{lab.target}"
        text = text.replace('"', r"\"")
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def state_json(f: FlatState) -> dict:
    if f.phase is None:
        phase = None
    else:
        phase = {"inv": pretty(f.phase[0]), "target": f.phase[1]}
    return {"q": f.q, "r": f.r, "phase": phase}


def to_json(flat: FlatLts) -> str:
    """JSON rendering with stable key order."""
    doc = {
        "system": flat.system.name,
        "initial": flat.index[flat.initial],
        "states": [state_json(f) for f in flat.states],
        "transitions": [
            {
                "from": flat.index[src],
                "label": (
                    {"kind": "steady", "r": lab.r}
                    if isinstance(lab, SteadyIn)
                    else {"kind": "adapt", "r": lab.r,
                          "inv": pretty(lab.inv), "target": lab.target}
                ),
                "to": flat.index[dst],
            }
            for src, lab, dst in flat.transitions
        ],
    }
    return json.dumps(doc, indent=2)
