"""Graph primitives shared by the CTL checker and the relation routes.

A graph is given by its successor function: ``succ(v)`` iterates the
successors of node ``v``.  Nodes are any hashable values; ``shortest_path``
also orders them to break ties.  A ``within`` set restricts a search to the
subgraph it induces.

Every backward fixpoint of both routes is one of two primitives, run over
the predecessor function: ``reach`` adds a node once *some* successor has
joined (E-until, and the strong relation's drop), and ``attractor`` once
*all* of them have, or as many as a count the caller gives (A-until, and the
weak relation's deletion).  Forward, one ``reach`` pass can also tell
which of the nodes it reaches lie on a cycle: for the states of a phase, and
for the region of an EG witness whose start lies on no cycle.
"""

from __future__ import annotations

from typing import (Callable, Container, Hashable, Iterable, MutableMapping,
                    MutableSequence, Optional)

Succ = Callable[[Hashable], Iterable[Hashable]]


def reach(succ: Succ, sources: Iterable, within: Optional[Container] = None,
          cyclic: Optional[set] = None) -> set:
    """Nodes reachable from ``sources`` in zero or more steps.

    Steps enter only nodes of ``within`` when it is given; the sources
    themselves are always included.  Given a set ``cyclic``, the same pass
    adds to it the reached nodes lying on a cycle, those that reach
    themselves in one or more steps: the search is then Tarjan's (1972,
    iteratively), and a node is on a cycle when its strongly connected
    component has more than one node or a self-loop into ``within``.
    """
    if cyclic is None:
        seen = set(sources)
        stack = list(seen)
        while stack:
            for y in succ(stack.pop()):
                if y not in seen and (within is None or y in within):
                    seen.add(y)
                    stack.append(y)
        return seen
    index: dict = {}
    low: dict = {}
    stack = []
    on_stack: set = set()
    for root in sources:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for y in it:
                if within is not None and y not in within:
                    continue
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append(y)
                    on_stack.add(y)
                    work.append((y, iter(succ(y))))
                    break
                if y in on_stack:
                    low[v] = min(low[v], index[y])
                    if y == v:  # a self-loop
                        cyclic.add(v)
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    if len(comp) > 1:
                        cyclic.update(comp)
    return set(index)


def attractor(pred: Succ, remaining: MutableSequence[int] | MutableMapping,
              sources: Iterable, within: Optional[Container] = None) -> set:
    """The least set holding ``sources`` and every node ``x`` of ``within``
    (of the graph when it is None) once ``remaining[x]`` of its successors
    have joined.

    ``pred(v)`` yields each predecessor of ``v`` once per edge.  The counts,
    a list over dense nodes or a dict, are counted down in place; a node
    whose count starts at 0 joins only as a source.  Linear in the nodes
    and edges visited (the counter of Clarke, Emerson and Sistla 1986).
    """
    result = set(sources)
    stack = list(result)
    while stack:
        for x in pred(stack.pop()):
            remaining[x] -= 1
            if remaining[x] == 0 and (within is None or x in within) and x not in result:
                result.add(x)
                stack.append(x)
    return result


def shortest_path(succ: Succ, start, goal: Container,
                  within: Optional[Container] = None) -> Optional[list]:
    """A shortest path from ``start`` to a node of ``goal``, or None.

    ``start`` itself counts when it is in ``goal``.  Ties break on the lowest
    node: the path ends at the least goal node of the nearest level, and each
    node's predecessor is the least node of the previous level that has it
    as a successor.  ``within`` restricts every node of the path.
    """
    if within is not None and start not in within:
        return None
    parent = {start: None}
    frontier = [start]
    while frontier:
        hits = [t for t in frontier if t in goal]
        if hits:
            path = [min(hits)]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        nxt = []
        for t in sorted(frontier):
            for y in succ(t):
                if y not in parent and (within is None or y in within):
                    parent[y] = t
                    nxt.append(y)
        frontier = nxt
    return None
