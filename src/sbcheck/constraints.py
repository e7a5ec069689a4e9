"""Quantifier-free constraint language over typed observable variables.

Observables are declared in a :class:`Signature` with one of three sorts:
bounded integers, booleans, or enumerations.  Formulas are boolean
combinations of comparisons between integer terms, boolean observables and
enumeration literals.  Evaluation is exact integer arithmetic; enumeration
values compare by label identity only.

:func:`tokenize` is the one lexer of the package, a single regular
expression: the model language, its formulas and CTL formulas all read its
tokens.  :func:`parse_with` is the one expression parser, an
operator-precedence loop over explicit stacks that takes its grammar as
data (:class:`Grammar`); this module holds the constraint grammar, ``ctl``
the CTL one, whose boolean operators are taken from it.  Parsing stops at
the first token that cannot extend the expression, which is where a formula
inside a model line ends; :func:`parse_text` reads a whole text with either
grammar.  A syntax error in either grammar raises
:class:`FormulaSyntaxError`.  The two languages share one tree as well: a
CTL formula is made of this module's ``BoolConst``, ``Var``, ``Not`` and
``BoolOp`` nodes and the three temporal nodes of ``ctl``.

:class:`InputError` is the base of every error in what a caller gives the
package, and the one place that prints a location.

Every walk over a formula tree runs on an explicit stack, so formulas of
any depth or length are accepted.  Trees are never hashed: the printed text
identifies a tree, since :func:`pretty` round-trips.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

Value = Union[int, bool, str]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"true", "false"})


class InputError(Exception):
    """Base class of every error in what a caller gives the package: a
    model, a formula, a file, a bound or a root.  ``message`` is the text
    without its location; the location, when known, is printed after it."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col

    @classmethod
    def at(cls, message: str, tok: Token) -> InputError:
        """The error located at the start of ``tok``."""
        return cls(message, tok.line, tok.col)


class FormulaError(InputError):
    """Base class for constraint-language diagnostics."""


class FormulaSyntaxError(FormulaError):
    pass


class UnknownObservableError(FormulaError):
    pass


class SortMismatchError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# Sorts and signatures


@dataclass(frozen=True)
class BoundedInt:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer sort {self.lo}..{self.hi}")

    def contains(self, v: Value) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def __str__(self):
        return f"int {self.lo}..{self.hi}"


@dataclass(frozen=True)
class BoolSort:
    def contains(self, v: Value) -> bool:
        return isinstance(v, bool)

    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class EnumSort:
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("enum sort needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate enum labels in {self.labels}")
        for lab in self.labels:
            if not _IDENT_RE.match(lab) or lab in _RESERVED:
                raise ValueError(f"bad enum label {lab!r}")

    def contains(self, v: Value) -> bool:
        return v in self.labels

    def __str__(self):
        return "enum { %s }" % ", ".join(self.labels)


Sort = Union[BoundedInt, BoolSort, EnumSort]


class Signature:
    """Ordered collection of typed observables.

    Enum labels must be unique across the whole signature and disjoint from
    observable names, so that a bare identifier in a formula resolves
    unambiguously to either a variable or an enumeration literal.
    """

    def __init__(self, observables: Iterable[tuple[str, Sort]]):
        self._sorts: dict[str, Sort] = {}
        self._label_sorts: dict[str, EnumSort] = {}
        for name, sort in observables:
            if not _IDENT_RE.match(name) or name in _RESERVED:
                raise ValueError(f"bad observable name {name!r}")
            if name in self._sorts:
                raise ValueError(f"duplicate observable {name!r}")
            self._sorts[name] = sort
            if isinstance(sort, EnumSort):
                for lab in sort.labels:
                    if lab in self._label_sorts:
                        raise ValueError(f"enum label {lab!r} used by two sorts")
                    self._label_sorts[lab] = sort
        for lab in self._label_sorts:
            if lab in self._sorts:
                raise ValueError(f"name {lab!r} is both observable and enum label")
        if not self._sorts:
            raise ValueError("signature needs at least one observable")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._sorts)

    def __contains__(self, name: str) -> bool:
        return name in self._sorts

    def sort_of(self, name: str) -> Sort:
        return self._sorts[name]

    def label_sort(self, label: str) -> Optional[EnumSort]:
        return self._label_sorts.get(label)

    def items(self):
        return self._sorts.items()

    def check_observation(self, obs: Mapping[str, Value]) -> None:
        """Raise ValueError unless ``obs`` is total and sort-conformant."""
        for name, sort in self._sorts.items():
            if name not in obs:
                raise ValueError(f"observation misses {name!r}")
            if not sort.contains(obs[name]):
                raise ValueError(f"value {obs[name]!r} not in sort of {name!r}")
        extra = set(obs) - set(self._sorts)
        if extra:
            raise ValueError(f"observation has unknown names {sorted(extra)}")


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class EnumConst:
    label: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str  # + - *
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class BoolOp:
    op: str  # && || => <=>
    left: "Formula"
    right: "Formula"


Formula = Union[BoolConst, IntConst, EnumConst, Var, Arith, Cmp, Not, BoolOp]


_APPLY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "&&": lambda a, b: a and b, "||": lambda a, b: a or b,
    "=>": lambda a, b: not a or b, "<=>": lambda a, b: bool(a) == bool(b),
}
_BINARY_NODES = (Arith, Cmp, BoolOp)


def evaluate(phi: Formula, obs: Mapping[str, Value]) -> Value:
    """Value of ``phi`` under ``obs``; boolean for well-sorted formulas.

    Arithmetic is exact over the mathematical integers, so intermediate
    values may leave the declared sort bounds.  Both operands of every
    operator are evaluated: an operator waits on the stack, as its symbol,
    behind its operands.
    """
    stack: list = [phi]
    vals: list = []
    pop, push, put = stack.pop, stack.append, vals.append
    while stack:
        node = pop()
        t = type(node)
        if t is str:  # an operator whose operands have their values
            if node == "!":
                vals[-1] = not vals[-1]
            else:
                b = vals.pop()
                vals[-1] = _APPLY[node](vals[-1], b)
        elif t is Var:
            put(obs[node.name])
        elif t is Cmp or t is BoolOp or t is Arith:
            push(node.op)
            push(node.right)
            push(node.left)
        elif t is IntConst or t is BoolConst or t is EnumConst:
            put(node.label if t is EnumConst else node.value)
        elif t is Not:
            push("!")
            push(node.arg)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return vals[0]


# ---------------------------------------------------------------------------
# Sort checking

_INT = "int"
_BOOL = "bool"
_LIT = "enumlit"  # enum literal whose sort is resolved by the comparison partner


def sort_check(phi: Formula, sig: Signature, positions=None, expect: str = _BOOL):
    """Check ``phi`` against ``sig``; raises a diagnostic on failure.

    ``expect`` is the required top-level type: "bool" for formulas, "int"
    for arithmetic update expressions.  ``positions`` optionally maps
    ``id(node)`` to a (line, col) pair so that parser-produced trees report
    source locations.  Nodes are visited left to right from an explicit
    stack, and each operand of an arithmetic, boolean or negation operator
    is checked as soon as its sort is known, before the next operand is
    visited.
    """

    def fail(cls, msg, node):
        line, col = (None, None) if positions is None else positions.get(id(node), (None, None))
        raise cls(msg, line, col)

    sorts: list = []  # the sorts of the visited nodes whose operator waits
    stack: list = [phi]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is tuple:  # an operator after its operand, or a comparison after both
            node, operand = node
            if operand is not None:
                # the operator's sort, under the operand's, is the one it needs
                if sorts.pop() != sorts[-1]:
                    kind = "an integer" if type(node) is Arith else "boolean"
                    fail(SortMismatchError, "negation of a non-boolean" if type(node) is Not
                         else f"operand of {node.op!r} is not {kind}", operand)
                continue
            tl, tr = sorts[-2:]
            sorts[-2:] = (_BOOL,)
            op, l, r = node.op, node.left, node.right
            if op in ("<", "<=", ">", ">="):
                if tl != _INT or tr != _INT:
                    fail(SortMismatchError, f"{op!r} compares non-integers", node)
                continue
            # == / != need both sides of one sort
            if tl == _LIT and tr == _LIT:
                fail(SortMismatchError, "cannot infer the sort of two enum labels", node)
            if tl == _LIT:
                tl, tr = tr, tl
                l, r = r, l
            if tr == _LIT:
                if not isinstance(tl, EnumSort):
                    fail(SortMismatchError, "enum label compared with non-enum", r)
                if r.label not in tl.labels:
                    fail(SortMismatchError, f"label {r.label!r} not in {tl}", r)
            elif tl != tr:
                fail(SortMismatchError, f"{op!r} compares different sorts", node)
        elif t is Var:
            if node.name not in sig:
                fail(UnknownObservableError, f"unknown observable {node.name!r}", node)
            sort = sig.sort_of(node.name)
            sorts.append(_INT if isinstance(sort, BoundedInt)
                         else _BOOL if isinstance(sort, BoolSort) else sort)
        elif t is IntConst or t is BoolConst:
            sorts.append(_INT if t is IntConst else _BOOL)
        elif t is EnumConst:
            if sig.label_sort(node.label) is None:
                fail(UnknownObservableError, f"unknown observable {node.label!r}", node)
            sorts.append(_LIT)
        elif t is Cmp:
            stack += ((node, None), node.right, node.left)
        elif t is Not:
            sorts.append(_BOOL)
            stack += ((node, node.arg), node.arg)
        elif t is Arith or t is BoolOp:
            sorts.append(_INT if t is Arith else _BOOL)
            stack += ((node, node.right), node.right, (node, node.left), node.left)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    if sorts[0] != expect:
        kind = "boolean" if expect == _BOOL else "an integer expression"
        fail(SortMismatchError, f"formula is not {kind}", phi)


# ---------------------------------------------------------------------------
# Tokenizer (shared with the model DSL)

_SYMBOLS = (
    "<=>", "==", "!=", "<=", ">=", "&&", "||", "=>", "->", ":=", "..",
    "(", ")", "{", "}", "[", "]", ",", ":", "+", "-", "*", "<", ">", "!", "=",
)


class Token(NamedTuple):
    """A lexeme and where it starts; an immutable tuple, which a model file
    makes by the thousand at little cost."""

    kind: str  # IDENT, INT, SYM, EOF
    text: str
    line: int
    col: int


# blanks, then a word, a symbol (the longest first), a newline, a comment
# or any other character, which starts no token; blanks that end the text
# match nothing
_TOKEN_RE = re.compile(r"[ \t\r]*(?:(\w+)|(%s)|(\n)|#[^\n]*|([^ \t\r]))"
                       % "|".join(map(re.escape, _SYMBOLS)))
_WORD, _SYM, _NEWLINE = 1, 2, 3


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Split ``text`` into tokens; ``#`` starts a comment to end of line.

    A word starts with a letter or a digit and is an INT when all of it is
    decimal digits, so ``2a`` and ``\u00b2`` are IDENTs.
    """
    toks: list[Token] = []
    line, line_start = first_line, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind is None:  # a comment
            continue
        if kind == _NEWLINE:
            line += 1
            line_start = m.end()
            continue
        word, col = m.group(kind), m.start(kind) - line_start + 1
        if kind == _SYM:
            toks.append(Token("SYM", word, line, col))
        elif kind == _WORD and (word[0].isalpha() or word[0].isdigit()):
            toks.append(Token("INT" if word.isdecimal() else "IDENT", word, line, col))
        else:
            raise FormulaSyntaxError(f"unexpected character {word[0]!r}", line, col)
    # the end stands where a trailing comment starts, at the last line's "#"
    end = text.find("#", line_start)
    toks.append(Token("EOF", "", line, (len(text) if end < 0 else end) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Operator-precedence parser (shared with the CTL grammar)

LEFT, RIGHT, NONE = "left", "right", "none"
_PREFIX = 1_000  # prefixes bind tighter than every binary operator
_GROUP = -1  # an open group stops the reductions of the operators inside it


@dataclass(frozen=True)
class Group:
    """A bracketed construct: ``opener``, then one expression before each
    token of ``ends`` (separators, then the closer).  ``build`` combines the
    expressions; without it the group is its one expression, as with
    parentheses."""

    opener: tuple[str, ...]
    ends: tuple[str, ...]
    build: Optional[Callable] = None


class Grammar:
    """An expression grammar as data, read by :func:`parse_with`.

    ``binary`` maps an operator to (precedence, associativity, build);
    higher precedences bind tighter, and the operators of one precedence
    share one associativity.  ``prefix`` maps an operator to its build.
    ``primary(tok, ctx)`` returns the leaf for ``tok``, or None when ``tok``
    cannot start an operand.  A syntax error raises
    :class:`FormulaSyntaxError` at its token, whatever the grammar.
    """

    def __init__(self, binary, prefix, groups, primary):
        self.binary = binary
        self.prefix = prefix
        self.openers = {g.opener[0]: g for g in groups}
        self.primary = primary


def _shown(tok: Token) -> str:
    return "end of formula" if tok.kind == "EOF" else repr(tok.text)


def _reduce(entry, out, positions) -> None:
    prec, build, tok = entry
    if prec == _PREFIX:
        node = build(out[-1])
    else:
        right = out.pop()
        node = build(out[-1], right)
    out[-1] = node
    positions[id(node)] = (tok.line, tok.col)


def parse_with(grammar: Grammar, toks: list[Token], pos: int = 0, ctx=None):
    """Parse the longest expression of ``grammar`` starting at ``toks[pos]``.

    Returns the tree, the index of the first token that cannot extend it,
    and a map from ``id(node)`` to the (line, col) of the operator or
    primary token that made each node.  Operands and operators wait on
    explicit stacks (Dijkstra's shunting yard), so the nesting depth is
    bounded by memory only.  Inside an open group the next token must
    continue the group; a second non-associative operator of one precedence
    cannot extend an expression.  The loop knows no grammar but the one it
    is given.
    """
    binary, prefix, openers = grammar.binary, grammar.prefix, grammar.openers
    positions: dict[int, tuple[int, int]] = {}
    out: list = []
    ops: list = [(_GROUP, None, 0)]  # the whole input, which no token ends
    while True:
        # an operand starts at toks[pos]
        tok = toks[pos]
        if tok.text in prefix:
            ops.append((_PREFIX, prefix[tok.text], tok))
            pos += 1
            continue
        group = openers.get(tok.text)
        if group is not None and all(toks[pos + k].text == t
                                     for k, t in enumerate(group.opener[1:], 1)):
            ops.append((_GROUP, group, 0))
            pos += len(group.opener)
            continue
        node = grammar.primary(tok, ctx)
        if node is None:
            raise FormulaSyntaxError.at(f"unexpected {_shown(tok)}", tok)
        positions[id(node)] = (tok.line, tok.col)
        out.append(node)
        pos += 1
        # a binary operator, a separator or a closer may follow
        while True:
            tok = toks[pos]
            op = binary.get(tok.text)
            if op is not None:
                prec, assoc, build = op
                while ops[-1][0] > prec or (ops[-1][0] == prec and assoc == LEFT):
                    _reduce(ops.pop(), out, positions)
                if assoc != NONE or ops[-1][0] != prec:
                    ops.append((prec, build, tok))
                    pos += 1
                    break
            # tok cannot extend the expression: it must continue the group
            while ops[-1][0] != _GROUP:
                _reduce(ops.pop(), out, positions)
            _, group, k = ops[-1]
            if group is None:
                return out[0], pos, positions
            if tok.text != group.ends[k]:
                raise FormulaSyntaxError.at(f"expected {group.ends[k]!r}, found {_shown(tok)}", tok)
            pos += 1
            if k + 1 < len(group.ends):
                ops[-1] = (_GROUP, group, k + 1)
                break
            ops.pop()
            if group.build is not None:
                n = len(group.ends)
                node = group.build(*out[-n:])
                del out[-n:]
                out.append(node)


def _formula_primary(tok: Token, sig: Signature):
    if tok.kind == "INT":
        return IntConst(int(tok.text))
    if tok.kind != "IDENT":
        return None
    if tok.text in ("true", "false"):
        return BoolConst(tok.text == "true")
    if tok.text in sig:
        return Var(tok.text)
    if sig.label_sort(tok.text) is not None:
        return EnumConst(tok.text)
    raise UnknownObservableError.at(f"unknown observable {tok.text!r}", tok)


def _negate(arg):
    """Prefix ``-``: a negative literal, or ``0 - arg``, which prints back."""
    return IntConst(-arg.value) if type(arg) is IntConst else Arith("-", IntConst(0), arg)


def _binary(node_type, precedence: int, assoc: str, *ops: str):
    return {op: (precedence, assoc, partial(node_type, op)) for op in ops}


FORMULA_GRAMMAR = Grammar(
    binary={**_binary(BoolOp, 1, LEFT, "<=>"), **_binary(BoolOp, 2, RIGHT, "=>"),
            **_binary(BoolOp, 3, LEFT, "||"), **_binary(BoolOp, 4, LEFT, "&&"),
            **_binary(Cmp, 5, NONE, "==", "!=", "<", "<=", ">", ">="),
            **_binary(Arith, 6, LEFT, "+", "-"), **_binary(Arith, 7, LEFT, "*")},
    prefix={"!": Not, "-": _negate},
    groups=(Group(("(",), (")",)),),
    primary=_formula_primary,
)


def parse_text(grammar: Grammar, text: str, ctx=None):
    """Parse all of ``text`` as one expression of ``grammar``.

    Returns the tree and its map of node positions, as :func:`parse_with`
    does; a token left after the expression is a syntax error.
    """
    toks = tokenize(text)
    node, pos, positions = parse_with(grammar, toks, 0, ctx)
    if toks[pos].kind != "EOF":
        raise FormulaSyntaxError.at(f"unexpected {toks[pos].text!r} after formula", toks[pos])
    return node, positions


def parse_formula(text: str, sig: Signature, expect: str = _BOOL) -> Formula:
    """Parse and sort-check a formula over ``sig``.

    ``expect`` may be "int" to parse an arithmetic term instead of a boolean
    formula.  Raises FormulaSyntaxError, UnknownObservableError or
    SortMismatchError with line/column information.
    """
    node, positions = parse_text(FORMULA_GRAMMAR, text, sig)
    sort_check(node, sig, positions, expect=expect)
    return node


# ---------------------------------------------------------------------------
# Pretty printing

def _prec(node) -> int:
    t = type(node)
    if t in _BINARY_NODES:
        return FORMULA_GRAMMAR.binary[node.op][0]
    return 8 if t is Not else 9


def pretty(phi: Formula) -> str:
    """Render ``phi``; ``parse_formula(pretty(phi), sig) == phi``.

    The text is written left to right from an explicit stack, on which
    each operand waits behind the text before it.
    """
    out: list[str] = []
    stack: list = [phi]

    def operand(child, limit):  # pushed last part first
        stack.extend((")", child, "(") if _prec(child) < limit else (child,))

    while stack:
        node = stack.pop()
        t = type(node)
        if t is str:
            out.append(node)
        elif t in _BINARY_NODES:
            # "=>" associates to the right, comparisons not at all
            p, right_assoc = _prec(node), node.op == "=>"
            operand(node.right, p if right_assoc else p + 1)
            stack.append(f" {node.op} ")
            operand(node.left, p + 1 if right_assoc or t is Cmp else p)
        elif t is Not:
            operand(node.arg, 9)
            stack.append("!")
        elif t is Var or t is EnumConst:
            out.append(node.name if t is Var else node.label)
        elif t is BoolConst:
            out.append("true" if node.value else "false")
        elif t is IntConst:
            out.append(str(node.value))
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return "".join(out)
