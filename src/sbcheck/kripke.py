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
its phase.  The structure is plain CTL data: states are the flat system's
dense indices, and only the flat system names them.
"""

from __future__ import annotations

from functools import cached_property

from .flatten import FlatLts

AP = ("adapting", "steady", "progress")

_NONE = frozenset()
_PROGRESS = frozenset({"progress"})
_STEADY = frozenset({"steady", "progress"})
_ADAPTING = frozenset({"adapting", "progress"})
_BORDER = frozenset({"adapting", "steady", "progress"})


class Kripke:
    """States ``0..n-1`` with ascending successor tuples ``succ[i]`` and
    atomic labels ``labels[i]``.  ``pred``, the predecessor tuples, is
    derived from ``succ`` on first access."""

    def __init__(self, initial: int, succ: list[tuple[int, ...]],
                 labels: list[frozenset[str]]):
        self.initial = initial
        self.succ = succ
        self.labels = labels
        self.n_edges = sum(map(len, succ))

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
    for i, code in enumerate(flat.codes):
        a, b = offsets[i], offsets[i + 1]
        if a == b:
            succ.append((i,))
            labels.append(_NONE)
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
    return Kripke(flat.initial_index, succ, labels)


def to_dot(flat: FlatLts, k: Kripke) -> str:
    """Graphviz rendering of ``k``, derived from ``flat``; the self-loops
    added at flat-dead states are dashed."""
    off = flat.offsets
    lines = ["digraph kripke {", "  rankdir=LR;"]
    for i, f in enumerate(flat.states):
        props = ",".join(sorted(k.labels[i]))
        text = (str(f) + "\\n{" + props + "}").replace('"', r"\"")
        style = "filled" if f.is_steady else "solid"
        marks = " peripheries=2" if i == k.initial else ""
        lines.append(f'  n{i} [label="{text}" style={style}{marks}];')
    for i, targets in enumerate(k.succ):
        dead = off[i] == off[i + 1]
        for j in targets:
            extra = " [style=dashed]" if dead else ""
            lines.append(f"  n{i} -> n{j}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"
