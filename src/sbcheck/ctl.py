"""Kripke structures and explicit-state CTL model checking over them.

A ``Kripke`` structure holds successor tuples over states ``0..n-1`` and,
per atom of ``AP``, the set of states it labels.  A CTL formula is a
propositional formula of the constraint language, whose variables are the
atoms, with three temporal nodes added: ``CtlEX`` and the two until
operators ``CtlEU`` and ``CtlAU``.  Its boolean nodes are the constraint
language's ``BoolConst``, ``Var``, ``Not`` and ``BoolOp`` (with ``&&``,
``||`` or ``=>``).  The remaining temporal operators are expanded at parse
time:

    EF p = E[true U p]      AF p = A[true U p]
    EG p = !AF !p           AG p = !EF !p          AX p = !EX !p

Satisfaction sets are computed bottom-up; an atom is its set, and the until
operators are least fixpoints over the predecessor relation, each pass
linear in states plus edges: E[a U b] is ``graph.reach`` from b inside a,
and A[a U b] is ``graph.attractor`` from b inside a, a state joining once
all its successors have.  The searches walk a set they are given and label
nothing: a counterexample is a shortest path out of it, and an EG witness a
lasso inside it, closed by two shortest-path searches, one backward from the
cycle head to its nearest successor and one forward from that successor back
to the head; only when the start lies on no cycle is the region reachable
from it computed, with its cycle states, in one pass.  Every traversal runs
through the primitives of ``graph``, which know nothing of CTL.

Formulas are read by the operator-precedence parser of ``constraints``,
from the tokens of its lexer (so ``#`` starts a comment), with the grammar
table ``CTL_GRAMMAR``, whose boolean operators are those of the constraint
grammar.  A syntax error raises the parser's :class:`FormulaSyntaxError`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Union

from .constraints import (FORMULA_GRAMMAR, BoolConst, BoolOp, FormulaSyntaxError, Grammar,
                          Group, Not, Record, Token, Var, parse_text)
from .graph import attractor, reach, shortest_path

AP = ("adapting", "steady", "progress")


class Kripke:
    """States ``0..n-1`` with ascending successor tuples ``succ[i]`` and the
    frozenset ``atoms[a]`` of the states labelled ``a``, per atom of ``AP``.
    ``pred``, the ascending predecessor lists, is derived from ``succ`` on
    first use."""

    def __init__(self, initial: int, succ: list[tuple[int, ...]],
                 atoms: dict[str, frozenset[int]]):
        self.initial = initial
        self.succ = succ
        self.atoms = atoms
        self.n_edges = sum(map(len, succ))

    @property
    def n_states(self) -> int:
        return len(self.succ)

    def labels(self, i: int) -> frozenset[str]:
        """The atoms labelling state ``i``."""
        return frozenset(a for a in AP if i in self.atoms[a])

    @cached_property
    def pred(self) -> list[list[int]]:
        pred: list[list[int]] = [[] for _ in self.succ]
        for s, targets in enumerate(self.succ):
            for t in targets:
                pred[t].append(s)
        return pred


class CtlWitnessError(Exception):
    """Raised when a witness precondition does not hold: a bug of its caller."""


class CtlEX(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: CtlFormula):
        object.__setattr__(self, "arg", arg)


class CtlEU(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: CtlFormula, right: CtlFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class CtlAU(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: CtlFormula, right: CtlFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


CtlFormula = Union[BoolConst, Var, Not, BoolOp, CtlEX, CtlEU, CtlAU]


def ef(phi: CtlFormula) -> CtlFormula:
    return CtlEU(BoolConst(True), phi)


def af(phi: CtlFormula) -> CtlFormula:
    return CtlAU(BoolConst(True), phi)


def eg(phi: CtlFormula) -> CtlFormula:
    return Not(af(Not(phi)))


def ag(phi: CtlFormula) -> CtlFormula:
    return Not(ef(Not(phi)))


def ax(phi: CtlFormula) -> CtlFormula:
    return Not(CtlEX(Not(phi)))


# ---------------------------------------------------------------------------
# Parser

_UNARY = {"!": Not, "EX": CtlEX, "AX": ax, "EF": ef, "AF": af, "EG": eg, "AG": ag}


def _ctl_primary(tok: Token, ctx):
    if tok.text in ("true", "false"):
        return BoolConst(tok.text == "true")
    if tok.text in AP:
        return Var(tok.text)
    if tok.kind == "IDENT":
        raise FormulaSyntaxError.at(f"unknown atom {tok.text!r}", tok)
    return None


CTL_GRAMMAR = Grammar(
    binary={op: FORMULA_GRAMMAR.binary[op] for op in ("=>", "||", "&&")},
    prefix=_UNARY,
    groups=(Group(("(",), (")",)), Group(("E", "["), ("U", "]"), CtlEU),
            Group(("A", "["), ("U", "]"), CtlAU)),
    primary=_ctl_primary,
)


def parse_ctl(text: str) -> CtlFormula:
    """Parse a CTL formula over the atoms adapting, steady and progress."""
    return parse_text(CTL_GRAMMAR, text)[0]


# ---------------------------------------------------------------------------
# Satisfaction sets


def _operands(node: CtlFormula) -> tuple[CtlFormula, ...]:
    match node:
        case Not(arg=x) | CtlEX(arg=x):
            return (x,)
        case (BoolOp(op="&&" | "||" | "=>", left=l, right=r) | CtlEU(left=l, right=r)
              | CtlAU(left=l, right=r)):
            return (l, r)
        case BoolConst() | Var():
            return ()
    raise TypeError(f"not a CTL node: {node!r}")


def sat_set(k: Kripke, phi: CtlFormula) -> frozenset[int]:
    """Indices of the states satisfying ``phi``, computed bottom-up.

    The nodes are visited in post-order from an explicit stack, so a deeply
    nested formula does not recurse; results are memoised by node identity,
    so no deep node is hashed or compared.
    """
    memo: dict[int, frozenset[int]] = {}  # the nodes stay alive inside phi
    everything = frozenset(range(k.n_states))
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        args = _operands(node)
        todo = [x for x in args if id(x) not in memo]
        if todo:
            stack += todo
            continue
        stack.pop()
        sub = [memo[id(x)] for x in args]
        match node:
            case BoolConst(value=value):
                res = everything if value else frozenset()
            case Var(name=name):
                res = k.atoms[name]
            case Not():
                res = everything - sub[0]
            case BoolOp(op="&&"):
                res = sub[0] & sub[1]
            case BoolOp(op="||"):
                res = sub[0] | sub[1]
            case BoolOp(op="=>"):
                res = (everything - sub[0]) | sub[1]
            case CtlEX():
                target, succ = sub[0], k.succ
                res = frozenset(t for t in everything
                                if any(y in target for y in succ[t]))
            case CtlEU():
                res = frozenset(reach(k.pred.__getitem__, sub[1], within=sub[0]))
            case CtlAU():
                res = frozenset(attractor(k.pred.__getitem__, [len(ts) for ts in k.succ],
                                          sub[1], within=sub[0]))
        memo[id(node)] = res
    return memo[id(phi)]


# ---------------------------------------------------------------------------
# Witnesses and counterexamples


class Lasso(Record):
    """A run shaped as a finite prefix followed by a repeated cycle."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix: tuple[int, ...], cycle: tuple[int, ...]):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def states(self):
        return self.prefix + self.cycle


def witness_eg(k: Kripke, good: frozenset[int], t: int) -> Lasso:
    """A lasso from ``t`` whose states all lie in ``good``.

    ``good`` must give each of its states a successor in ``good``, as an EG
    set does, or be the AG set of a formula holding AG at ``t``; ``t`` must
    lie in it.  The lasso stays inside the region of ``good`` reachable from
    ``t``.  The prefix is a shortest path to the nearest state on a cycle of
    the region, ties broken by state index; the cycle closes through the
    successor of that head nearest to it (lowest index among equals) along a
    shortest path back.

    When ``t`` lies on a cycle the prefix is empty.  One backward search
    from ``t`` inside ``good`` tells that case apart: it succeeds exactly
    when some successor of ``t`` reaches ``t``.  It returns the path a
    search inside the region would: a successor in ``good`` of a region
    state is a region state, so every region state keeps its level and its
    parent, and the successors of ``t`` it looks for lie in the region.  The
    closing search, forward from the successor found, stays in the region
    for the same reason.  Only when ``t`` lies on no cycle is the region
    computed, with its cycle states, by one pass from ``t``.  From the root
    of a ``to_kripke`` structure, which reaches every state, the backward
    search then stops at once.
    """
    if t not in good:
        raise CtlWitnessError("state lies outside the given set")
    succ, pred = k.succ.__getitem__, k.pred.__getitem__
    head, prefix = t, ()
    # searching back from a head to its successors ends at the lowest of the
    # nearest ones
    back = shortest_path(pred, t, frozenset(k.succ[t]), within=good)
    if back is None:
        cycles: set[int] = set()
        region = reach(succ, [t], within=good, cyclic=cycles)
        path = shortest_path(succ, t, cycles, within=region)
        if path is None:  # a state of the region has no successor in it
            raise CtlWitnessError("no cycle reachable inside the given set")
        head, prefix = path[-1], tuple(path[:-1])
        back = shortest_path(pred, head, frozenset(k.succ[head]), within=region)
    loop = shortest_path(succ, back[-1], (head,), within=good)
    return Lasso(prefix, (head, *loop[:-1]))


def counterexample_ag(k: Kripke, good: frozenset[int], t: int) -> tuple[int, ...]:
    """Shortest path from ``t`` to a state outside ``good``, or ``()`` when
    no such state is reachable from ``t``; ties between equally near ones
    break on the state index.
    """
    bad = frozenset(range(k.n_states)) - good
    return tuple(shortest_path(k.succ.__getitem__, t, bad) or ())
