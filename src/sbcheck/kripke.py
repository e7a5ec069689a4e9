"""The bridge from a flat transition system to its ``ctl.Kripke`` structure.

The transition relation must be left-total, so every flat-dead state gets a
self-loop.  Atoms come from the original flat transitions only:

* adapting - the state has an outgoing adaptation-family transition;
* steady   - the phase component is empty and some flat transition leaves;
* progress - some flat transition leaves.

Added self-loops never contribute to atoms, which keeps dead states
progress-free.  Every transition of an adapting flat state carries its
phase, so a state with progress is steady or adapting.

``to_kripke`` reads the flat system's CSR arrays: a state's successors are
its distinct flat targets, and its atoms follow from its label ranks and
its phase.  The structure is plain CTL data: states are the flat system's
dense indices, and only the flat system names them.
"""

from __future__ import annotations

import json

from .ctl import AP, Kripke
from .flatten import FlatLts, state_json


def to_kripke(flat: FlatLts) -> Kripke:
    """Left-total Kripke structure labelled over {adapting, steady, progress}."""
    offsets, ranks, targets = flat.offsets, flat.labels, flat.targets
    P = len(flat.system.s.phases)
    succ: list[tuple[int, ...]] = []
    adapting, steady, progress = [], [], []  # the states of each atom
    for i, code in enumerate(flat.codes):
        a, b = offsets[i], offsets[i + 1]
        if a == b:
            succ.append((i,))
            continue
        if ranks[a] == ranks[b - 1]:
            # one label: its targets are already distinct and ascending
            succ.append(tuple(targets[a:b]))
        else:
            succ.append(tuple(sorted(set(targets[a:b]))))
        progress.append(i)
        if code % P == 0:
            steady.append(i)
        if ranks[b - 1]:  # labels ascend, steady (0) first
            adapting.append(i)
    sets = (adapting, steady, progress)  # in the order of AP
    return Kripke(flat.initial_index, succ, dict(zip(AP, map(frozenset, sets))))


def to_dot(flat: FlatLts, k: Kripke) -> str:
    """Graphviz rendering of ``k``, derived from ``flat``; the self-loops
    added at flat-dead states are dashed."""
    off = flat.offsets
    lines = ["digraph kripke {", "  rankdir=LR;"]
    for i, f in enumerate(flat.states):
        props = ",".join(sorted(k.labels(i)))
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


def to_json(flat: FlatLts, k: Kripke) -> str:
    """JSON rendering of ``k``, derived from ``flat``, with stable key order."""
    doc = {
        "system": flat.system.name,
        "initial": k.initial,
        "states": [{"state": state_json(f), "labels": sorted(k.labels(i))}
                   for i, f in enumerate(flat.states)],
        "edges": [[i, j] for i in range(k.n_states) for j in k.succ[i]],
    }
    return json.dumps(doc, indent=2)
