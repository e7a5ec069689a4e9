"""Kripke structure derived from a flat transition system.

The transition relation must be left-total, so every flat-dead state gets a
self-loop.  Labels come from the original flat transitions only:

* adapting - the state has an outgoing adaptation-family transition;
* steady   - the phase component is empty and some flat transition leaves;
* progress - some flat transition leaves.

Added self-loops never contribute to labels, which keeps dead states
progress-free.
"""

from __future__ import annotations

from functools import cached_property

from .flatten import AdaptPhase, FlatLts, FlatState

AP = ("adapting", "steady", "progress")


class Kripke:
    def __init__(self, states: tuple[FlatState, ...], initial: int,
                 succ: list[tuple[int, ...]], labels: list[frozenset[str]],
                 self_looped: frozenset[int]):
        self.states = states
        self.initial = initial
        self.succ = succ
        self.labels = labels
        self.self_looped = self_looped  # states that were flat-dead

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return sum(len(ts) for ts in self.succ)

    @cached_property
    def pred(self) -> list[tuple[int, ...]]:
        pred: list[list[int]] = [[] for _ in self.states]
        for s, targets in enumerate(self.succ):
            for t in targets:
                pred[t].append(s)
        return [tuple(p) for p in pred]


def to_kripke(flat: FlatLts) -> Kripke:
    """Left-total Kripke structure labelled over {adapting, steady, progress}."""
    n = len(flat.states)
    succ_sets: list[set[int]] = [set() for _ in range(n)]
    labels: list[frozenset[str]] = []
    looped: set[int] = set()
    for i, f in enumerate(flat.states):
        outgoing = flat.successors(f)
        lab = set()
        if any(isinstance(l, AdaptPhase) for l, _ in outgoing):
            lab.add("adapting")
        if outgoing:
            lab.add("progress")
            if f.is_steady:
                lab.add("steady")
        labels.append(frozenset(lab))
        for _, g in outgoing:
            succ_sets[i].add(flat.index[g])
        if not outgoing:
            succ_sets[i].add(i)
            looped.add(i)
    succ = [tuple(sorted(ts)) for ts in succ_sets]
    return Kripke(flat.states, flat.index[flat.initial], succ, labels,
                  frozenset(looped))


def to_dot(k: Kripke) -> str:
    lines = ["digraph kripke {", "  rankdir=LR;"]
    for i, f in enumerate(k.states):
        label = str(f)
        props = ",".join(sorted(k.labels[i]))
        text = (label + "\\n{" + props + "}").replace('"', r"\"")
        style = "filled" if f.is_steady else "solid"
        marks = " peripheries=2" if i == k.initial else ""
        lines.append(f'  n{i} [label="{text}" style={style}{marks}];')
    for i, targets in enumerate(k.succ):
        for j in targets:
            extra = " [style=dashed]" if i == j and i in k.self_looped else ""
            lines.append(f"  n{i} -> n{j}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"
