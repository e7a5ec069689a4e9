"""The operator-precedence parser against the recursive-descent references.

Constraint formulas are parsed from every token position of every line of
the bundled models, the 500 acceptance systems and 50 guarded-rule models,
where the stop rule ("the first token that cannot extend the expression")
decides where each model-language formula ends.  Both grammars are also fed
seeded token soups, and CTL random formulas printed with and without their
parentheses.  Each parse must give the reference's tree, position of every
node and stop index, or an exception of the same class; constraint errors
must also agree on line and column.  Only inputs on which the reference
itself overflows the recursion limit are skipped.
"""

import random

from helpers import (
    OracleCtlParser,
    OracleFormulaParser,
    acceptance_schedule,
    random_ctl,
    rules_system_text,
)

from sbcheck import models
from sbcheck.cli import gen_random, system_to_dsl
from sbcheck.constraints import (
    FORMULA_GRAMMAR,
    BoolConst,
    BoolOp,
    BoolSort,
    BoundedInt,
    EnumSort,
    FormulaError,
    FormulaSyntaxError,
    Not,
    Record,
    Signature,
    Var,
    parse_with,
    tokenize,
)
from sbcheck.ctl import (
    CtlAU,
    CtlEU,
    CtlEX,
    parse_ctl,
)
from sbcheck.model import parse_model

N_SOUPS = 20_000


def _positions_agree(a, b, pos_a, pos_b) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if pos_a.get(id(x)) != pos_b.get(id(y)):
            return False
        for f in x.__slots__:
            child = getattr(x, f)
            if isinstance(child, Record):
                stack.append((child, getattr(y, f)))
    return True


def _agrees_with_oracle(toks, sig, start) -> bool:
    """Whether both parsers read the same formula from ``toks[start]``;
    None when the reference exceeds the recursion limit."""
    oracle = OracleFormulaParser(toks, sig, start)
    try:
        want = oracle.parse_expression()
    except RecursionError:
        return None
    except FormulaError as exc:
        try:
            parse_with(FORMULA_GRAMMAR, toks, start, sig)
        except FormulaError as got:
            return type(got) is type(exc) and (got.line, got.col) == (exc.line, exc.col)
        return False
    node, stop, positions = parse_with(FORMULA_GRAMMAR, toks, start, sig)
    return (node == want and stop == oracle.pos
            and _positions_agree(node, want, positions, oracle.positions))


def _model_texts():
    for name in models.NAMES:
        text = models.path(name).read_text(encoding="utf-8")
        yield text, parse_model(text).sig
    for k in range(500):
        sys_ = gen_random(k, *acceptance_schedule(k))
        yield system_to_dsl(sys_), sys_.sig
    for seed in range(50):
        text = rules_system_text(seed)
        yield text, parse_model(text).sig


def test_formula_parser_matches_reference_on_model_lines():
    starts = 0
    for text, sig in _model_texts():
        for lineno, line in enumerate(text.splitlines(), 1):
            toks = tokenize(line, first_line=lineno)
            for start in range(len(toks)):
                assert _agrees_with_oracle(toks, sig, start) is not False, (line, start)
                starts += 1
    assert starts > 50_000


SOUP_SIG = Signature([("x", BoundedInt(0, 9)), ("y", BoundedInt(-3, 3)),
                      ("b", BoolSort()), ("m", EnumSort(("A", "B")))])
FORMULA_SOUP = dict(
    operands=("x", "y", "b", "m", "A", "B", "true", "false", "0", "7", "12"),
    prefixes=("!",),
    groups=(("(", ")"),),
    binary=("*", "+", "-", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "=>", "<=>"),
    junk=("z", "->", ":=", "..", "{", "}", "[", "]", ",", ":", "=", "²"),
)


def _soup(rng, operands, prefixes, groups, binary, junk) -> str:
    """Token text from a random walk over a grammar in which any pick may
    slip to an arbitrary token: mostly well formed, often not.

    ``groups`` are token sequences such as ``("E [", "U", "]")``; a group's
    inner tokens are separators, its last one the closer.
    """
    anything = operands + prefixes + binary + junk + sum(groups, ())
    out, todo = [], []  # todo: the tokens each open group still needs
    want_operand = True
    for _ in range(rng.randint(1, 40)):
        r = rng.random()
        if want_operand and r < 0.2:
            tok = rng.choice(prefixes)
        elif want_operand and r < 0.4:
            group = rng.choice(groups)
            tok = group[0]
            todo.append(list(group[1:]))
        elif want_operand:
            tok, want_operand = rng.choice(operands), False
        elif todo and r < 0.4:
            tok = todo[-1].pop(0)
            want_operand = bool(todo[-1])
            if not want_operand:
                todo.pop()
        else:
            tok, want_operand = rng.choice(binary), True
        out.append(rng.choice(anything) if rng.random() < 0.03 else tok)
    if rng.random() < 0.8:  # finish the walk
        if want_operand:
            out.append(rng.choice(operands))
        for rest in reversed(todo):
            for tok in rest:
                out.append(tok)
                if tok != rest[-1]:
                    out.append(rng.choice(operands))
    return rng.choice((" ", "")).join(out) if rng.random() < 0.1 else " ".join(out)


def test_formula_parser_matches_reference_on_token_soups():
    rng = random.Random(606)
    for _ in range(N_SOUPS):
        text = _soup(rng, **FORMULA_SOUP)
        toks = tokenize(text)
        start = rng.randrange(len(toks)) if rng.random() < 0.2 else 0
        assert _agrees_with_oracle(toks, SOUP_SIG, start) is not False, (text, start)


def _ctl_agrees_with_oracle(text) -> bool:
    try:
        want = OracleCtlParser(text).parse()
    except RecursionError:
        return True
    except FormulaSyntaxError:
        try:
            parse_ctl(text)
        except FormulaSyntaxError:
            return True
        return False
    return parse_ctl(text) == want


CTL_SOUP = dict(
    operands=("adapting", "steady", "progress", "true", "false"),
    prefixes=("!", "EX", "AX", "EF", "AF", "EG", "AG"),
    groups=(("(", ")"), ("E [", "U", "]"), ("A[", "U", "]")),
    binary=("&&", "||", "=>"),
    junk=("foo", "E", "A", "[", "<", "1", "=="),
)


def test_ctl_parser_matches_reference_on_token_soups():
    rng = random.Random(607)
    for _ in range(N_SOUPS):
        text = _soup(rng, **CTL_SOUP)
        assert _ctl_agrees_with_oracle(text), text


def _ctl_text(phi, rng) -> str:
    """``phi`` printed with each operand's parentheses kept at random, so
    that the text need not denote ``phi``."""

    def operand(x):
        s = _ctl_text(x, rng)
        return f"({s})" if rng.random() < 0.7 else s

    match phi:
        case BoolConst(value=True):
            return "true"
        case BoolConst(value=False):
            return "false"
        case Var(name=name):
            return name
        case Not(arg=x):
            return "!" + operand(x)
        case CtlEX(arg=x):
            return "EX " + operand(x)
        case BoolOp(op="&&", left=l, right=r):
            return f"{operand(l)} && {operand(r)}"
        case BoolOp(op="||", left=l, right=r):
            return f"{operand(l)} || {operand(r)}"
        case BoolOp(op="=>", left=l, right=r):
            return f"{operand(l)} => {operand(r)}"
        case CtlEU(left=l, right=r):
            return f"E[{_ctl_text(l, rng)} U {_ctl_text(r, rng)}]"
        case CtlAU(left=l, right=r):
            return f"A[{_ctl_text(l, rng)} U {_ctl_text(r, rng)}]"


def test_ctl_parser_matches_reference_on_random_formulas():
    rng = random.Random(608)
    for _ in range(3000):
        phi = random_ctl(rng, rng.randint(0, 5))
        text = _ctl_text(phi, rng)
        assert _ctl_agrees_with_oracle(text), text
