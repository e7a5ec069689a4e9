"""Shared test machinery: invariant suites and independent oracles.

The oracles deliberately use different algorithms than the package: the CTL
oracle evaluates temporal operators by forward graph search and dual
characterisations instead of backward fixpoints; the flat-space oracle
re-derives reachability with direct formula evaluation and no caching or
canonicalisation; the relation oracle explores every pair's phases afresh
with the flat-space oracle's successor function and deletes by whole
sweeps; the EG witness oracle closes its lasso with one forward search per
successor of the cycle head, after finding the cycle states of the whole
set it searches.  The last two find regions level by level
(``naive_closure``) and take a node to lie on a cycle when it lies in the
closure of its own successors (``naive_cyclic``), where the package runs
one depth-first pass for both; they run their shortest paths on the
package's ``graph`` kernel, which ``test_graph`` checks against brute
force.  The reference parsers are recursive descent, one method per
precedence level, where the package runs one table-driven
operator-precedence loop for both formula languages.  The formula walkers
(evaluation, sort checking, printing) are recursive, where the package
walks explicit stacks, and the reference lexer reads one character at a
time, where the package matches one regular expression.
"""

from __future__ import annotations

import functools
import random

from sbcheck.constraints import (
    FORMULA_GRAMMAR,
    Arith,
    BoolConst,
    BoolOp,
    BoolSort,
    BoundedInt,
    Cmp,
    EnumConst,
    EnumSort,
    Formula,
    FormulaSyntaxError,
    IntConst,
    Not,
    Signature,
    SortMismatchError,
    Token,
    UnknownObservableError,
    Var,
    parse_formula,
)
from sbcheck.ctl import (
    AP,
    CtlAU,
    CtlEU,
    CtlEX,
    CtlWitnessError,
    Kripke,
    Lasso,
    af,
    ag,
    ax,
    ef,
    eg,
    sat_set,
)
from sbcheck.graph import shortest_path
from sbcheck.model import BLevel, BState, SBSystem, SLevel, STransition, parse_model


# ---------------------------------------------------------------------------
# Flat-semantics invariant suite


def prop1_violations(sys, flat) -> list[str]:
    """Violations of the structural properties of the flat semantics."""
    out = []
    steady_edges = set()
    adapt_edges = set()
    states = flat.states
    out_labels = [[] for _ in states]
    out_targets = [[] for _ in states]
    for i, lab, j in flat.edges():
        src, dst = states[i], states[j]
        out_labels[i].append(lab)
        out_targets[i].append(dst)
        if lab is None:
            steady_edges.add((src, dst))
            if not src.is_steady:
                out.append(f"(iii) steady transition out of adapting {src}")
            if not (dst.is_steady and dst.r == src.r):
                out.append(f"(vi) steady transition changes structure state at {src}")
        else:
            adapt_edges.add((src, dst))
            ok_target = (dst.is_steady and dst.r == lab[1]) or (
                not dst.is_steady and dst.r == src.r and dst.phase == lab)
            if not ok_target:
                out.append(f"(vi) adaptation transition with foreign target at {src}")
    overlap = steady_edges & adapt_edges
    if overlap:
        out.append(f"(iv) families overlap on {sorted(map(str, overlap))[:3]}")
    for f, labs, targets in zip(states, out_labels, out_targets):
        has_steady = any(l is None for l in labs)
        has_adapt = any(l is not None for l in labs)
        if f.is_steady and has_steady and has_adapt:
            out.append(f"(i/ii) steady state {f} both continues and adapts")
        if f.is_steady and not sys.sat(f.q, sys.s.label(f.r)):
            out.append(f"(vii) reachable steady state {f} violates its constraints")
        if not f.is_steady:
            ends = [g for g in targets if g.is_steady]
            mids = [g for g in targets if not g.is_steady]
            if ends and mids:
                out.append(f"(v) {f} keeps adapting although the phase can end")
    bound = (len(sys.b.states)
             * (1 + len(sys.s.transitions))
             * len(sys.s.states))
    if flat.n_states > bound:
        out.append(f"size bound violated: {flat.n_states} > {bound}")
    return out


def flat_out(flat, f) -> list:
    """The (label, target state) transitions of ``flat`` leaving state ``f``."""
    i = flat.states.index(f)
    return [(lab, flat.state(j)) for src, lab, j in flat.edges() if src == i]


def steady_pairs(flat) -> frozenset[tuple[str, str]]:
    """The (behaviour, structure) id pairs of the steady states of ``flat``."""
    return frozenset((f.q, f.r) for f in flat.states if f.is_steady)


def oracle_flat_size(sys, root=None) -> tuple[int, int]:
    """Reachable flat state and labelled edge counts of ``oracle_flat``."""
    states, edges = oracle_flat(sys, root)
    return len(states), len(edges)


def oracle_successors(sys):
    """The flat successor function, re-derived as plain sets.

    ``successors((q, r, phase))`` is the set of ``(label, (q2, r2, phase2))``
    steps the five rules allow, with ``("steady", r)`` or
    ``("adapt", r, inv, target)`` labels, found by direct formula evaluation
    without the package's successor function, caches, interning or
    orderings.  A phase and its label name the invariant as the reference
    printer ``oracle_pretty`` prints it; a phase evaluates the first
    invariant of its name.
    """
    b, s = sys.b, sys.s
    named = [(oracle_pretty(tr.inv), tr) for tr in s.transitions]
    formula = {}
    for inv, tr in named:
        formula.setdefault(inv, tr.inv)

    def holds(q, phi):
        return bool(oracle_evaluate(phi, b.states[q].obs))

    def successors(src):
        q, r, ph = src
        nxt = set()
        if ph is None:
            if holds(q, s.label(r)):
                good = [q2 for q2 in b.successors(q) if holds(q2, s.label(r))]
                if good:
                    nxt.update((("steady", r), (q2, r, None)) for q2 in good)
                else:
                    for inv, tr in named:
                        if tr.source != r:
                            continue
                        lab = ("adapt", r, inv, tr.target)
                        for q2 in b.successors(q):
                            if holds(q2, s.label(tr.target)):
                                nxt.add((lab, (q2, tr.target, None)))
                            elif holds(q2, tr.inv):
                                nxt.add((lab, (q2, r, (inv, tr.target))))
        else:
            name, target = ph
            inv = formula[name]
            if holds(q, inv) and not holds(q, s.label(target)):
                lab = ("adapt", r, name, target)
                ends = [q2 for q2 in b.successors(q) if holds(q2, s.label(target))]
                if ends:
                    nxt.update((lab, (q2, target, None)) for q2 in ends)
                else:
                    nxt.update((lab, (q2, r, ph))
                               for q2 in b.successors(q) if holds(q2, inv))
        return nxt

    return successors


def oracle_flat(sys, root=None):
    """Reachable flat states and labelled edges, re-derived as plain sets.

    States are ``(q, r, phase)`` tuples and edges ``(src, label, dst)``, as
    ``oracle_successors`` gives them.
    """
    successors = oracle_successors(sys)
    f0 = (root or (sys.b.initial, sys.s.initial)) + (None,)
    seen = {f0}
    edges = set()
    stack = [f0]
    while stack:
        src = stack.pop()
        for lab, dst in successors(src):
            edges.add((src, lab, dst))
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen, edges


def naive_closure(succ, sources, within=None) -> set:
    """Everything reachable from ``sources`` in zero or more steps inside
    ``within``, one level at a time."""
    out = frontier = set(sources)
    while frontier:
        frontier = {y for x in frontier for y in succ(x)
                    if within is None or y in within} - out
        out = out | frontier
    return out


def naive_cyclic(succ, nodes, within=None) -> set:
    """The nodes of ``nodes`` lying on a cycle inside ``within``: those in
    the closure of their own successors there."""
    return {v for v in nodes if v in naive_closure(
        succ, [y for y in succ(v) if within is None or y in within], within)}


# ---------------------------------------------------------------------------
# Reference relation route: per-pair exploration over oracle successors


def oracle_pair_facts(sys):
    """A function giving the relational facts of one grid pair ``(q, r)``.

    Each call explores the pair's successors and, for every adaptation label
    in the package's phase order (target, then printed invariant), the whole
    adapting subgraph its first states reach, by ``oracle_successors`` on
    plain state tuples, so the package's rule code is never run; nothing is
    shared between pairs but the successor memo.  The facts are a dict with
    ``progress``, ``steady_pairs`` and ``phases``, a list of (label,
    endpoints, has_dead, has_cycle).
    """
    step = oracle_successors(sys)
    memo = {}

    def successors(f):
        if f not in memo:
            memo[f] = step(f)
        return memo[f]

    def adapting(f):
        return [y for _lab, y in successors(f) if y[2] is not None]

    def facts(q, r):
        succs = successors((q, r, None))
        starts = {}
        for lab, y in succs:
            if lab[0] == "adapt":
                starts.setdefault(lab, []).append(y)
        phases = []
        for lab in sorted(starts, key=lambda lab: (lab[3], lab[2])):
            firsts = starts[lab]
            nodes = naive_closure(adapting, [y for y in firsts if y[2] is not None])
            landed = firsts + [y for x in nodes for _lab, y in successors(x)]
            phases.append((f"{r} -> {lab[3]}",
                           frozenset((y[0], y[1]) for y in landed if y[2] is None),
                           any(not successors(x) for x in nodes),
                           bool(naive_cyclic(adapting, nodes))))
        return {"progress": bool(succs),
                "steady_pairs": frozenset((y[0], y[1]) for lab, y in succs
                                          if lab[0] == "steady"),
                "phases": phases}

    return facts


def _oracle_clauses(pf, rel, mode):
    """(clause, message) of every clause (ii)/(iii) a pair with facts ``pf``
    breaks against ``rel``, in the package's message order and text."""
    out = []
    steady = pf["steady_pairs"]
    if mode == "weak":
        if steady and not steady & rel:
            out.append(("ii", "no steady successor lands on a related pair"))
        if pf["phases"] and not any(ends & rel for _, ends, _, _ in pf["phases"]):
            out.append(("iii", "no adaptation phase completes on a related pair"))
        return out
    if steady - rel:
        out.append(("ii", f"steady successors {sorted(steady - rel)} unrelated"))
    for label, ends, dead, cycle in pf["phases"]:
        if dead:
            out.append(("iii", f"phase {label} can dead-end while adapting"))
        if cycle:
            out.append(("iii", f"phase {label} admits an infinite adaptation path"))
        if ends - rel:
            out.append(("iii", f"phase {label} ends on unrelated pairs {sorted(ends - rel)}"))
    return out


def oracle_grid(sys):
    """Every pair (q, r) whose q satisfies the label of r, sorted."""
    return sorted((q, r) for q in sys.b.states for r in sys.s.states
                  if oracle_evaluate(sys.s.label(r), sys.b.states[q].obs))


def oracle_check(sys, pairs, mode):
    """The (pair, clause, message) violations of relation ``pairs`` in
    ``mode``, pair by pair in sorted order, as ``is_*_adaptation`` lists them."""
    facts = oracle_pair_facts(sys)
    rel = frozenset(pairs)
    out = []
    for q, r in sorted(rel):
        if not oracle_evaluate(sys.s.label(r), sys.b.states[q].obs):
            out.append(((q, r), "i", "constraints not satisfied"))
            continue
        pf = facts(q, r)
        if not pf["progress"]:
            out.append(((q, r), "i", "no flat successor (progress fails)"))
            continue
        out += [((q, r), c, m) for c, m in _oracle_clauses(pf, rel, mode)]
    return out


def oracle_relation(sys, mode):
    """The greatest ``mode`` adaptation relation, by sweeping the whole
    candidate set and deleting every violating pair until a sweep deletes
    none."""
    facts = oracle_pair_facts(sys)
    grid = {p: facts(*p) for p in oracle_grid(sys)}
    rel = {p for p, pf in grid.items() if pf["progress"]}
    while True:
        bad = {p for p in rel if _oracle_clauses(grid[p], rel, mode)}
        if not bad:
            return frozenset(rel)
        rel -= bad


def oracle_strong_relation(sys):
    """The reachable steady pairs when they form a strong adaptation, else None."""
    candidate = frozenset((q, r) for q, r, phase in oracle_flat(sys)[0] if phase is None)
    return None if oracle_check(sys, candidate, "strong") else candidate


# ---------------------------------------------------------------------------
# Reference parsers: the recursive-descent parsers the package used before
# its operator-precedence parser, kept to check it against


_ORACLE_UNARY = {"!": Not, "EX": CtlEX, "AX": ax, "EF": ef, "AF": af, "EG": eg, "AG": ag}


class OracleFormulaParser:
    """The recursive-descent reference for the constraint grammar.

    Precedence, tightest first: prefix ``!`` and ``-``, ``*``, ``+ -``,
    comparisons, ``&&``, ``||``, ``=>`` (right-associative), ``<=>``.
    """

    def __init__(self, tokens: list[Token], sig: Signature, pos: int = 0):
        self.toks = tokens
        self.sig = sig
        self.pos = pos
        self.positions: dict[int, tuple[int, int]] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(msg, tok.line, tok.col)

    def _mark(self, node, tok: Token):
        self.positions[id(node)] = (tok.line, tok.col)
        return node

    def parse_expression(self) -> Formula:
        """Parse a formula starting at the current token, stopping where the
        grammar can no longer extend it."""
        return self._iff()

    def _iff(self):
        node = self._implies()
        while self.peek().text == "<=>":
            tok = self.take()
            node = self._mark(BoolOp("<=>", node, self._implies()), tok)
        return node

    def _implies(self):
        node = self._or()
        if self.peek().text == "=>":
            tok = self.take()
            node = self._mark(BoolOp("=>", node, self._implies()), tok)
        return node

    def _or(self):
        node = self._and()
        while self.peek().text == "||":
            tok = self.take()
            node = self._mark(BoolOp("||", node, self._and()), tok)
        return node

    def _and(self):
        node = self._cmp()
        while self.peek().text == "&&":
            tok = self.take()
            node = self._mark(BoolOp("&&", node, self._cmp()), tok)
        return node

    def _cmp(self):
        node = self._add()
        if self.peek().text in ("==", "!=", "<", "<=", ">", ">="):
            tok = self.take()
            node = self._mark(Cmp(tok.text, node, self._add()), tok)
        return node

    def _add(self):
        node = self._mul()
        while self.peek().text in ("+", "-"):
            tok = self.take()
            node = self._mark(Arith(tok.text, node, self._mul()), tok)
        return node

    def _mul(self):
        node = self._unary()
        while self.peek().text == "*":
            tok = self.take()
            node = self._mark(Arith("*", node, self._unary()), tok)
        return node

    def _unary(self):
        tok = self.peek()
        if tok.text == "!":
            self.take()
            return self._mark(Not(self._unary()), tok)
        if tok.text == "-":  # a negative literal, or 0 - operand
            self.take()
            arg = self._unary()
            if type(arg) is IntConst:
                return self._mark(IntConst(-arg.value), tok)
            return self._mark(Arith("-", IntConst(0), arg), tok)
        return self._primary()

    def _primary(self):
        tok = self.take()
        if tok.kind == "INT":
            return self._mark(IntConst(int(tok.text)), tok)
        if tok.text == "(":
            node = self._iff()
            if self.peek().text != ")":
                self.error("expected ')'")
            self.take()
            return node
        if tok.kind == "IDENT":
            if tok.text == "true":
                return self._mark(BoolConst(True), tok)
            if tok.text == "false":
                return self._mark(BoolConst(False), tok)
            if tok.text in self.sig:
                return self._mark(Var(tok.text), tok)
            if self.sig.label_sort(tok.text) is not None:
                return self._mark(EnumConst(tok.text), tok)
            raise UnknownObservableError(
                f"unknown observable {tok.text!r}", tok.line, tok.col
            )
        self.error(f"unexpected {tok.text!r}", tok)


# ---------------------------------------------------------------------------
# Recursive formula walkers and the character-loop lexer


_ORACLE_SYMBOLS = (
    "<=>", "==", "!=", "<=", ">=", "&&", "||", "=>", "->", ":=", "..",
    "(", ")", "{", "}", "[", "]", ",", ":", "+", "-", "*", "<", ">", "!", "=",
)
# the symbols by first character, longest first: a character that starts
# none is rejected without a probe
_ORACLE_SYMBOLS_AT: dict[str, list[str]] = {}
for _sym in _ORACLE_SYMBOLS:
    _ORACLE_SYMBOLS_AT.setdefault(_sym[0], []).append(_sym)


def oracle_tokenize(text: str, first_line: int = 1) -> list[Token]:
    """The lexer one character at a time."""
    toks: list[Token] = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("INT" if word.isdecimal() else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _ORACLE_SYMBOLS_AT.get(ch, ()):
            if text.startswith(sym, i):
                toks.append(Token("SYM", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


def oracle_evaluate(phi: Formula, obs):
    """Recursive evaluation, with ``&&``, ``||`` and ``=>`` short-circuited."""
    match phi:
        case BoolConst(value=v) | IntConst(value=v):
            return v
        case EnumConst(label=lab):
            return lab
        case Var(name=name):
            return obs[name]
        case Arith(op=op, left=l, right=r):
            a, b = oracle_evaluate(l, obs), oracle_evaluate(r, obs)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            return a * b
        case Cmp(op=op, left=l, right=r):
            a, b = oracle_evaluate(l, obs), oracle_evaluate(r, obs)
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        case Not(arg=x):
            return not oracle_evaluate(x, obs)
        case BoolOp(op=op, left=l, right=r):
            if op == "&&":
                return oracle_evaluate(l, obs) and oracle_evaluate(r, obs)
            if op == "||":
                return oracle_evaluate(l, obs) or oracle_evaluate(r, obs)
            if op == "=>":
                return (not oracle_evaluate(l, obs)) or oracle_evaluate(r, obs)
            return bool(oracle_evaluate(l, obs)) == bool(oracle_evaluate(r, obs))
    raise TypeError(f"not a formula node: {phi!r}")


def oracle_sort_check(phi: Formula, sig: Signature, positions=None, expect: str = "bool"):
    """Recursive sort checking: each operand of an arithmetic or boolean
    operator is checked as soon as it is visited."""

    def fail(cls, msg, node):
        line, col = (None, None) if positions is None else positions.get(id(node), (None, None))
        raise cls(msg, line, col)

    def visit(node):
        match node:
            case BoolConst():
                return "bool"
            case IntConst():
                return "int"
            case EnumConst(label=lab):
                if sig.label_sort(lab) is None:
                    fail(UnknownObservableError, f"unknown observable {lab!r}", node)
                return "enumlit"
            case Var(name=name):
                if name not in sig:
                    fail(UnknownObservableError, f"unknown observable {name!r}", node)
                sort = sig.sort_of(name)
                if isinstance(sort, BoundedInt):
                    return "int"
                if isinstance(sort, BoolSort):
                    return "bool"
                return sort
            case Arith(op=op, left=l, right=r):
                for side in (l, r):
                    if visit(side) != "int":
                        fail(SortMismatchError, f"operand of {op!r} is not an integer", side)
                return "int"
            case Cmp(op=op, left=l, right=r):
                tl, tr = visit(l), visit(r)
                if op in ("<", "<=", ">", ">="):
                    if tl != "int" or tr != "int":
                        fail(SortMismatchError, f"{op!r} compares non-integers", node)
                    return "bool"
                if tl == "enumlit" and tr == "enumlit":
                    fail(SortMismatchError, "cannot infer the sort of two enum labels", node)
                if tl == "enumlit":
                    tl, tr = tr, tl
                    l, r = r, l
                if tr == "enumlit":
                    if not isinstance(tl, EnumSort):
                        fail(SortMismatchError, "enum label compared with non-enum", r)
                    if r.label not in tl.labels:
                        fail(SortMismatchError, f"label {r.label!r} not in {tl}", r)
                    return "bool"
                if tl != tr:
                    fail(SortMismatchError, f"{op!r} compares different sorts", node)
                return "bool"
            case Not(arg=x):
                if visit(x) != "bool":
                    fail(SortMismatchError, "negation of a non-boolean", x)
                return "bool"
            case BoolOp(op=op, left=l, right=r):
                for side in (l, r):
                    if visit(side) != "bool":
                        fail(SortMismatchError, f"operand of {op!r} is not boolean", side)
                return "bool"
        raise TypeError(f"not a formula node: {node!r}")

    if visit(phi) != expect:
        kind = "boolean" if expect == "bool" else "an integer expression"
        fail(SortMismatchError, f"formula is not {kind}", phi)


def _oracle_prec(node) -> int:
    match node:
        case BoolOp(op=op) | Cmp(op=op) | Arith(op=op):
            return FORMULA_GRAMMAR.binary[op][0]
        case Not():
            return 8
        case _:
            return 9


def oracle_pretty(phi: Formula) -> str:
    """Recursive printing, each operand parenthesised by its precedence."""

    def wrap(child, limit):
        s = oracle_pretty(child)
        return f"({s})" if _oracle_prec(child) < limit else s

    match phi:
        case BoolConst(value=v):
            return "true" if v else "false"
        case IntConst(value=v):
            return str(v)
        case EnumConst(label=lab):
            return lab
        case Var(name=name):
            return name
        case Not(arg=x):
            return "!" + wrap(x, 9)
        case Arith(op=op, left=l, right=r):
            p = _oracle_prec(phi)
            return f"{wrap(l, p)} {op} {wrap(r, p + 1)}"
        case Cmp(op=op, left=l, right=r):
            return f"{wrap(l, 6)} {op} {wrap(r, 6)}"
        case BoolOp(op=op, left=l, right=r):
            p = _oracle_prec(phi)
            if op == "=>":
                return f"{wrap(l, p + 1)} {op} {wrap(r, p)}"
            return f"{wrap(l, p)} {op} {wrap(r, p + 1)}"
    raise TypeError(f"not a formula node: {phi!r}")


class OracleCtlParser:
    """The recursive-descent reference for CTL, with its own lexer."""

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(text[i:j])
                i = j
                continue
            for sym in ("&&", "||", "=>", "(", ")", "[", "]", "!"):
                if text.startswith(sym, i):
                    toks.append(sym)
                    i += len(sym)
                    break
            else:
                raise FormulaSyntaxError(f"unexpected character {ch!r} at offset {i}")
        toks.append("")
        return toks

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.take()
        if tok != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok!r}")

    def parse(self) -> CtlFormula:
        node = self._implies()
        if self.peek() != "":
            raise FormulaSyntaxError(f"unexpected {self.peek()!r} after formula")
        return node

    def _implies(self):
        node = self._or()
        if self.peek() == "=>":
            self.take()
            return BoolOp("=>", node, self._implies())
        return node

    def _or(self):
        node = self._and()
        while self.peek() == "||":
            self.take()
            node = BoolOp("||", node, self._and())
        return node

    def _and(self):
        node = self._unary()
        while self.peek() == "&&":
            self.take()
            node = BoolOp("&&", node, self._unary())
        return node

    def _unary(self):
        # a prefix chain is collected in a loop, so its length is not bounded
        # by the recursion limit
        prefix = []
        while self.peek() in _ORACLE_UNARY:
            prefix.append(_ORACLE_UNARY[self.take()])
        tok = self.peek()
        if tok in ("E", "A"):
            self.take()
            self.expect("[")
            left = self._implies()
            self.expect("U")
            right = self._implies()
            self.expect("]")
            node = CtlEU(left, right) if tok == "E" else CtlAU(left, right)
        else:
            node = self._primary()
        for op in reversed(prefix):
            node = op(node)
        return node

    def _primary(self):
        tok = self.take()
        if tok == "(":
            node = self._implies()
            self.expect(")")
            return node
        if tok == "true":
            return BoolConst(True)
        if tok == "false":
            return BoolConst(False)
        if tok in AP:
            return Var(tok)
        if tok == "":
            raise FormulaSyntaxError("unexpected end of formula")
        raise FormulaSyntaxError(f"unknown atom {tok!r}")


# ---------------------------------------------------------------------------
# Random Kripke structures and CTL formulas


def random_kripke(rng: random.Random, n_states: int, out_degree: int = 3) -> Kripke:
    succ = []
    for i in range(n_states):
        k = rng.randint(0, out_degree)
        targets = sorted({rng.randrange(n_states) for _ in range(k)})
        succ.append(tuple(targets or [i]))
    labels = [frozenset(p for p in ("adapting", "steady", "progress")
                        if rng.random() < 0.4)
              for _ in range(n_states)]
    return Kripke(0, succ, {a: frozenset(i for i, ls in enumerate(labels) if a in ls)
                            for a in AP})


def random_ctl(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([BoolConst(True), BoolConst(False), Var("adapting"),
                           Var("steady"), Var("progress")])
    pick = rng.randrange(12)
    sub = lambda: random_ctl(rng, depth - 1)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return BoolOp("&&", sub(), sub())
    if pick == 2:
        return BoolOp("||", sub(), sub())
    if pick == 3:
        return BoolOp("=>", sub(), sub())
    if pick == 4:
        return CtlEX(sub())
    if pick == 5:
        return ax(sub())
    if pick == 6:
        return ef(sub())
    if pick == 7:
        return af(sub())
    if pick == 8:
        return eg(sub())
    if pick == 9:
        return ag(sub())
    if pick == 10:
        return CtlEU(sub(), sub())
    return CtlAU(sub(), sub())


def oracle_sat(k: Kripke, phi) -> frozenset[int]:
    """CTL satisfaction by forward search and dual characterisations."""
    everything = frozenset(range(k.n_states))

    def forward_eu(sat_a, sat_b):
        # exists a path through sat_a states reaching sat_b
        out = set()
        for t in range(k.n_states):
            if t in sat_b:
                out.add(t)
                continue
            if t not in sat_a:
                continue
            seen = {t}
            stack = [t]
            hit = False
            while stack and not hit:
                x = stack.pop()
                for y in k.succ[x]:
                    if y in sat_b:
                        hit = True
                        break
                    if y in sat_a and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if hit:
                out.add(t)
        return frozenset(out)

    def cycle_states(region):
        # nodes on a cycle of the subgraph induced by ``region``
        cyc = set()
        color = {}
        for start in region:
            if color.get(start):
                continue
            stack = [(start, iter([y for y in k.succ[start] if y in region]))]
            color[start] = 1
            path = [start]
            while stack:
                v, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    color[v] = 2
                    stack.pop()
                    path.pop()
                    continue
                if color.get(nxt) == 1:
                    cyc.update(path[path.index(nxt):])
                elif not color.get(nxt):
                    color[nxt] = 1
                    stack.append((nxt, iter([y for y in k.succ[nxt] if y in region])))
                    path.append(nxt)
        return cyc

    def forward_eg(sat_a):
        cyc = cycle_states(sat_a)
        return forward_eu(sat_a, frozenset(cyc) & sat_a)

    match phi:
        case BoolConst(value=True):
            return everything
        case BoolConst(value=False):
            return frozenset()
        case Var(name=name):
            return frozenset(t for t in everything if name in k.labels(t))
        case Not(arg=x):
            return everything - oracle_sat(k, x)
        case BoolOp(op="&&", left=l, right=r):
            return oracle_sat(k, l) & oracle_sat(k, r)
        case BoolOp(op="||", left=l, right=r):
            return oracle_sat(k, l) | oracle_sat(k, r)
        case BoolOp(op="=>", left=l, right=r):
            return (everything - oracle_sat(k, l)) | oracle_sat(k, r)
        case CtlEX(arg=x):
            target = oracle_sat(k, x)
            return frozenset(t for t in everything
                             if any(y in target for y in k.succ[t]))
        case CtlEU(left=l, right=r):
            return forward_eu(oracle_sat(k, l), oracle_sat(k, r))
        case CtlAU(left=l, right=r):
            # fails where a not-b path reaches (not-a and not-b) or loops in not-b
            sat_a, sat_b = oracle_sat(k, l), oracle_sat(k, r)
            not_b = everything - sat_b
            bad = forward_eu(not_b, not_b - sat_a) | forward_eg(not_b)
            return everything - bad
    raise TypeError(f"not a CTL node: {phi!r}")


# ---------------------------------------------------------------------------
# Reference EG witness: one forward search per successor of the cycle head


@functools.lru_cache(maxsize=4)
def _cyclic_inside(k: Kripke, good: frozenset[int]) -> set[int]:
    """The states of ``good`` on a cycle inside it, once per set: a region
    of ``good`` that holds every successor in ``good`` of its states has as
    its cycle states the ones of ``good`` that lie in it."""
    return naive_cyclic(k.succ.__getitem__, good, good)


def oracle_witness(k: Kripke, good: frozenset[int], t: int) -> Lasso:
    """The lasso ``ctl.witness_eg(k, good, t)`` must return, found the
    direct way.

    The prefix is a shortest path from ``t`` to the cycle states of the
    whole region of ``good`` reachable from ``t``; the cycle closes through
    the successor of its head with the shortest path back to the head, the
    lowest such successor among equals.  Every search stays in the region.
    """
    if t not in good:
        raise CtlWitnessError("state lies outside the given set")
    succ = k.succ.__getitem__
    region = naive_closure(succ, [t], within=good)
    prefix_path = shortest_path(succ, t, _cyclic_inside(k, good), within=region)
    if prefix_path is None:
        raise CtlWitnessError("no cycle reachable inside the given set")
    head = prefix_path[-1]
    best = None
    for y in sorted(k.succ[head]):
        back = shortest_path(succ, y, (head,), within=region)
        if back is not None and (best is None or len(back) < len(best)):
            best = back
    return Lasso(tuple(prefix_path[:-1]), (head, *best[:-1]))


def oracle_witness_eg(k: Kripke, inner, t: int) -> Lasso:
    """``oracle_witness`` inside the EG set of ``inner``."""
    good = sat_set(k, eg(inner))
    if t not in good:
        raise CtlWitnessError("state does not satisfy EG of the given formula")
    return oracle_witness(k, good, t)


# ---------------------------------------------------------------------------
# Deterministic system families


def single_loop_system() -> SBSystem:
    sig = Signature([("x", BoundedInt(0, 1))])
    b = BLevel([BState("q0", {"x": 0})], "q0", [("q0", "q0")])
    s = SLevel([("r0", parse_formula("x == 0", sig))], "r0", [])
    return SBSystem("loop", sig, b, s)


def corridor_system(n_blocks: int, seed: int = 0) -> SBSystem:
    """Ring of steady corridors separated by adaptation gaps.

    Flat size grows linearly in ``n_blocks``: one block contributes 100
    behaviour states (two 40-state corridors and two 10-state gaps).
    """
    rng = random.Random(seed)
    sig = Signature([("x", BoundedInt(0, 2))])
    corridor, gap = 40, 10
    xs = ([0] * corridor + [2] * gap + [1] * corridor + [2] * gap) * n_blocks
    n = len(xs)
    states = [BState(f"s{i}", {"x": xs[i]}) for i in range(n)]
    trans = []
    for i in range(n):
        trans.append((f"s{i}", f"s{(i + 1) % n}"))
        for off in (2, 3, 4, 6, 8):
            j = (i + off) % n
            if xs[j] == xs[i]:
                trans.append((f"s{i}", f"s{j}"))
        j = (i + rng.randint(1, 9)) % n
        if xs[j] == xs[i]:
            trans.append((f"s{i}", f"s{j}"))
    b = BLevel(states, "s0", trans)
    s = SLevel(
        [("r0", parse_formula("x == 0", sig)),
         ("r1", parse_formula("x == 1", sig))],
        "r0",
        [STransition("r0", parse_formula("true", sig), "r1"),
         STransition("r1", parse_formula("true", sig), "r0")],
    )
    return SBSystem(f"corridor{n_blocks}", sig, b, s)


def opened_corridor_system(n_blocks: int) -> SBSystem:
    """:func:`corridor_system` opened into a line ending in a dead state.

    The steps that wrap around the ring go, so the last state, in a gap, is
    dead, and every pair of both greatest relations is deleted, one
    deletion leading to the next.
    """
    ring = corridor_system(n_blocks)
    trans = [(a, b) for a, b in ring.b.transitions if int(b[1:]) > int(a[1:])]
    b = BLevel(list(ring.b.states.values()), ring.b.initial, trans)
    return SBSystem(f"opened{n_blocks}", ring.sig, b, ring.s)


def fan_system(n: int) -> SBSystem:
    """``n`` entering states that all start one shared adaptation phase.

    Each ``x=0`` state ``a<i>`` steps only to the head of a line of ``n``
    ``x=2`` states, so every entering pair adapts from the same first state;
    the line ends on the ``x=1`` state ``e``, which loops.
    """
    sig = Signature([("x", BoundedInt(0, 2))])
    states = ([BState(f"a{i}", {"x": 0}) for i in range(n)]
              + [BState(f"l{i}", {"x": 2}) for i in range(n)]
              + [BState("e", {"x": 1})])
    trans = [(f"a{i}", "l0") for i in range(n)]
    trans += [(f"l{i}", f"l{i + 1}") for i in range(n - 1)]
    trans += [(f"l{n - 1}", "e"), ("e", "e")]
    return SBSystem(f"fan{n}", sig, BLevel(states, "a0", trans), _two_phase_structure(sig))


def spread_fan_system(n: int) -> SBSystem:
    """``n`` entering states whose adaptation phases start on one line.

    As :func:`fan_system`, but ``a<i>`` steps to ``l<i>``: every entering
    pair adapts from its own first state, and the phase of each first state
    runs through the phases of the ones after it.
    """
    sig = Signature([("x", BoundedInt(0, 2))])
    states = ([BState(f"a{i}", {"x": 0}) for i in range(n)]
              + [BState(f"l{i}", {"x": 2}) for i in range(n)]
              + [BState("e", {"x": 1})])
    trans = [(f"a{i}", f"l{i}") for i in range(n)]
    trans += [(f"l{i}", f"l{i + 1}") for i in range(n - 1)]
    trans += [(f"l{n - 1}", "e"), ("e", "e")]
    return SBSystem(f"spread_fan{n}", sig, BLevel(states, "a0", trans),
                    _two_phase_structure(sig))


def ladder_system(n: int) -> SBSystem:
    """One entering pair whose adaptation phase runs down a ladder of ``n`` rungs.

    The ``x=0`` state ``s`` steps to the first rung; each ``x=2`` rung
    ``g<i>`` steps to the next rung and to an ``x=2`` state ``h<i>``, whose
    only move ends the phase on its own ``x=1`` state ``e<i>``, which loops.
    The phase has ``n`` endpoints, each reachable from a suffix of the rungs.
    """
    sig = Signature([("x", BoundedInt(0, 2))])
    states = ([BState("s", {"x": 0})]
              + [BState(f"{c}{i}", {"x": x}) for i in range(n)
                 for c, x in (("g", 2), ("h", 2), ("e", 1))])
    trans = [("s", "g0")]
    for i in range(n):
        trans += [(f"g{i}", f"h{i}"), (f"h{i}", f"e{i}"), (f"e{i}", f"e{i}")]
        if i + 1 < n:
            trans.append((f"g{i}", f"g{i + 1}"))
    return SBSystem(f"ladder{n}", sig, BLevel(states, "s", trans), _two_phase_structure(sig))


def cascade_ladder_system(n: int) -> SBSystem:
    """:func:`ladder_system` whose ends step down the line instead of looping.

    Each end ``e<i>`` steps to ``e<i-1>``, and ``e0`` to a dead ``x=1``
    state ``d``.  So the ends leave both greatest relations in turn, and the
    entering pair, whose phase ends on all of them, leaves at the last one.
    """
    ladder = ladder_system(n)
    trans = [(a, b) for a, b in ladder.b.transitions if a != b]
    trans += [(f"e{i}", f"e{i - 1}" if i else "d") for i in range(n)]
    states = [*ladder.b.states.values(), BState("d", {"x": 1})]
    return SBSystem(f"cascade_ladder{n}", ladder.sig, BLevel(states, "s", trans), ladder.s)


def _two_phase_structure(sig) -> SLevel:
    """``r0`` (x=0) adapting to ``r1`` (x=1) under a true invariant."""
    return SLevel(
        [("r0", parse_formula("x == 0", sig)), ("r1", parse_formula("x == 1", sig))],
        "r0",
        [STransition("r0", parse_formula("true", sig), "r1")],
    )


def rules_system(seed: int) -> SBSystem:
    """A seeded model with guarded-rule behaviour over two counters.

    Structure labels are overlapping intervals of ``x``, and some structure
    pairs get two transitions with different invariants, so one flat state
    can reach the same steady state under two adaptation labels.
    """
    return parse_model(rules_system_text(seed))


def rules_system_text(seed: int) -> str:
    """The model text of ``rules_system(seed)``."""
    rng = random.Random(seed)
    n_s = rng.randint(2, 4)
    width = rng.randint(2, 4)
    hi = n_s * width
    lines = [f"system rules{seed}", "observables", f"  x : int 0..{hi}",
             "  y : int 0..2", "behaviour rules",
             f"  init x={rng.randint(0, width - 1)}, y=0"]
    for k in range(rng.randint(3, 6)):
        a = rng.randint(1, 2)
        lines.append(rng.choice([
            f"  rule R{k}: x <= {hi - a} -> x := x + {a}",
            f"  rule R{k}: x >= {a} && y <= {rng.randint(0, 2)} -> x := x - {a}",
            f"  rule R{k}: y < 2 && x >= {rng.randint(0, hi)} -> y := y + 1",
            f"  rule R{k}: y > 0 && x < {hi} -> y := y - 1, x := x + 1",
        ]))
    lines.append("structure")
    for i in range(n_s):
        lo = max(0, i * width - rng.randint(0, 1))
        lines.append(f"  state r{i} : x >= {lo} && x <= {i * width + width - 1}")
    lines.append("  init r0")
    for i in range(n_s):
        for j in range(n_s):
            if i == j or rng.random() < 0.3:
                continue
            for inv in rng.sample(["true", f"x >= {rng.randint(0, hi)}", "y <= 1"],
                                  rng.randint(1, 2)):
                lines.append(f"  trans r{i} -> r{j} inv {inv}")
    return "\n".join(lines) + "\n"


def acceptance_schedule(seed: int) -> tuple[int, int, float]:
    """Generator parameters for one acceptance seed, fixed for all time."""
    prng = random.Random(seed * 7919 + 17)
    return prng.randint(1, 12), prng.randint(1, 4), prng.uniform(0.05, 1.0)
