"""Kripke structure derived from a flat transition system.

The transition relation must be left-total, so every flat-dead state gets a
self-loop.  Labels come from the original flat transitions only:

* adapting - the state has an outgoing adaptation-family transition;
* steady   - the phase component is empty and some flat transition leaves;
* progress - some flat transition leaves.

Added self-loops never contribute to labels, which keeps dead states
progress-free.

``to_kripke`` reads the flat system's CSR arrays: a state's successors are
its distinct flat targets, and its labels follow from its label ranks and
its phase.  States keep the flat system's dense indices; the ``FlatState``
objects are decoded only when ``states`` is first read.
"""

from __future__ import annotations

from functools import cached_property

from .flatten import FlatLts, FlatState

AP = ("adapting", "steady", "progress")

_NONE = frozenset()
_PROGRESS = frozenset({"progress"})
_STEADY = frozenset({"steady", "progress"})
_ADAPTING = frozenset({"adapting", "progress"})
_BORDER = frozenset({"adapting", "steady", "progress"})


class Kripke:
    """States ``0..n-1`` with ascending successor tuples ``succ[i]``.

    ``states`` is a tuple of ``FlatState``s, or the ``FlatLts`` the
    structure was derived from, whose states are then decoded on first
    access.  ``pred``, the predecessor tuples, is derived from ``succ`` on
    first access unless given.
    """

    def __init__(self, states: tuple[FlatState, ...] | FlatLts, initial: int,
                 succ: list[tuple[int, ...]], labels: list[frozenset[str]],
                 self_looped: frozenset[int],
                 pred: list[tuple[int, ...]] | None = None):
        if isinstance(states, FlatLts):
            self.flat = states
        else:
            self.flat = None
            self.states = states
        self.initial = initial
        self.succ = succ
        self.labels = labels
        self.self_looped = self_looped  # states that were flat-dead
        self.n_edges = sum(map(len, succ))
        if pred is not None:
            self.pred = pred

    @cached_property
    def states(self) -> tuple[FlatState, ...]:
        return self.flat.states

    @property
    def n_states(self) -> int:
        return len(self.succ)

    @cached_property
    def pred(self) -> list[tuple[int, ...]]:
        pred: list[list[int]] = [[] for _ in self.succ]
        for s, targets in enumerate(self.succ):
            for t in targets:
                pred[t].append(s)
        return [tuple(p) for p in pred]


def to_kripke(flat: FlatLts) -> Kripke:
    """Left-total Kripke structure labelled over {adapting, steady, progress}."""
    offsets, ranks, targets = flat.offsets, flat.labels, flat.targets
    P = len(flat.system.s.phases)
    succ: list[tuple[int, ...]] = []
    labels: list[frozenset[str]] = []
    looped: list[int] = []
    for i, code in enumerate(flat.codes):
        a, b = offsets[i], offsets[i + 1]
        if a == b:
            succ.append((i,))
            labels.append(_NONE)
            looped.append(i)
            continue
        if ranks[a] == ranks[b - 1]:
            # one label: its targets are already distinct and ascending
            succ.append(tuple(targets[a:b]))
        else:
            succ.append(tuple(sorted(set(targets[a:b]))))
        adapting = ranks[b - 1] != 0  # labels ascend, steady (0) first
        if code % P == 0:
            labels.append(_BORDER if adapting else _STEADY)
        else:
            labels.append(_ADAPTING if adapting else _PROGRESS)
    return Kripke(flat, flat.initial_index, succ, labels, frozenset(looped))


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
