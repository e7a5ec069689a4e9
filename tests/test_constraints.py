import copy
import random

import pytest
from helpers import (
    OracleFormulaParser,
    acceptance_schedule,
    oracle_evaluate,
    oracle_pretty,
    oracle_sort_check,
    oracle_tokenize,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcheck import models
from sbcheck.cli import gen_random
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
    FormulaError,
    FormulaSyntaxError,
    IntConst,
    Not,
    Signature,
    SortMismatchError,
    UnknownObservableError,
    Var,
    evaluate,
    parse_formula,
    parse_with,
    pretty,
    sort_check,
    tokenize,
)
from sbcheck.model import parse_model


@pytest.fixture(scope="module")
def atv_sig():
    return Signature([
        ("velocity", BoundedInt(0, 10)),
        ("congestion", BoolSort()),
    ])


@pytest.fixture(scope="module")
def bone_sig():
    return Signature([
        ("Oc", BoundedInt(0, 2)),
        ("Ob", BoundedInt(0, 4)),
        ("Oy", BoundedInt(0, 2)),
    ])


@pytest.fixture(scope="module")
def enum_sig():
    return Signature([
        ("r", EnumSort(("M", "S"))),
        ("v", EnumSort(("V0", "V1", "V2"))),
        ("c", BoundedInt(0, 1)),
    ])


def test_parse_congestion_example(atv_sig):
    phi = parse_formula(
        "congestion => velocity < 5 && !congestion => velocity > 0", atv_sig)
    assert isinstance(phi, BoolOp) and phi.op == "=>"


def test_parse_true_literal(atv_sig):
    assert parse_formula("true", atv_sig) == BoolConst(True)


def test_unknown_observable(bone_sig):
    sig = Signature([("Oc", BoundedInt(0, 2))])
    with pytest.raises(UnknownObservableError):
        parse_formula("Oc > Oy + 1", sig)


def test_syntax_error_carries_position(atv_sig):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("velocity < ", atv_sig)
    assert exc.value.line == 1 and exc.value.col is not None


def test_sort_mismatch_diagnostics(atv_sig, enum_sig):
    with pytest.raises(SortMismatchError):
        parse_formula("velocity == congestion", atv_sig)
    with pytest.raises(SortMismatchError):
        parse_formula("v < V1", enum_sig)  # enums are unordered
    with pytest.raises(SortMismatchError):
        parse_formula("v == M", enum_sig)  # label of another sort
    with pytest.raises(SortMismatchError):
        parse_formula("M == S", enum_sig)  # no side fixes the sort
    with pytest.raises(SortMismatchError):
        parse_formula("congestion + 1 > 0", atv_sig)


def test_precedence_shapes(atv_sig):
    a = parse_formula("congestion || congestion && !congestion", atv_sig)
    assert a.op == "||" and a.right.op == "&&"
    b = parse_formula("congestion => congestion => congestion", atv_sig)
    assert b.op == "=>" and isinstance(b.right, BoolOp) and b.right.op == "=>"
    c = parse_formula("velocity + 2 * velocity - 1 == 0", atv_sig)
    assert c.op == "==" and c.left.op == "-" and c.left.left.op == "+"
    with pytest.raises((FormulaSyntaxError, SortMismatchError)):
        parse_formula("velocity < 5 < 6", atv_sig)  # comparisons do not chain


def test_evaluate_congestion_example(atv_sig):
    phi = parse_formula(
        "(congestion => velocity < 5) && (!congestion => velocity > 0)", atv_sig)
    assert evaluate(phi, {"velocity": 3, "congestion": True}) is True


def test_evaluate_resorption_label(bone_sig):
    phi = parse_formula("Oc>0 && Ob==0 && Oy==0", bone_sig)
    assert evaluate(phi, {"Oc": 2, "Ob": 0, "Oy": 0}) is True


def test_evaluate_hand_checked_false(bone_sig):
    phi = parse_formula("Oy==2 && Oc==0 && Ob==0", bone_sig)
    assert evaluate(phi, {"Oc": 0, "Ob": 1, "Oy": 2}) is False


def test_evaluate_is_deterministic(bone_sig):
    phi = parse_formula("Oc*Ob - Oy >= 1 || Oy==0", bone_sig)
    obs = {"Oc": 2, "Ob": 3, "Oy": 1}
    assert evaluate(phi, obs) == evaluate(phi, obs)


def test_intermediate_arithmetic_unbounded(bone_sig):
    # 2*4*... exceeds every sort bound; evaluation stays exact
    phi = parse_formula("Oc * Ob * 100 > 500", bone_sig)
    assert evaluate(phi, {"Oc": 2, "Ob": 4, "Oy": 0}) is True


def test_signature_rejects_ambiguity():
    with pytest.raises(ValueError):
        Signature([("a", EnumSort(("X",))), ("b", EnumSort(("X", "Y")))])
    with pytest.raises(ValueError):
        Signature([("X", BoundedInt(0, 1)), ("b", EnumSort(("X",)))])
    with pytest.raises(ValueError):
        Signature([("a", BoundedInt(3, 2))])


def test_observation_checking(enum_sig):
    enum_sig.check_observation({"r": "M", "v": "V2", "c": 1})
    with pytest.raises(ValueError):
        enum_sig.check_observation({"r": "M", "v": "V2"})
    with pytest.raises(ValueError):
        enum_sig.check_observation({"r": "M", "v": "V9", "c": 0})
    with pytest.raises(ValueError):
        enum_sig.check_observation({"r": "M", "v": "V2", "c": 7})


# ---------------------------------------------------------------------------
# Property tests

PROP_SIG = Signature([
    ("a", BoundedInt(0, 5)),
    ("b", BoolSort()),
    ("c", EnumSort(("A", "B", "C"))),
])

_int_term = st.recursive(
    st.one_of(st.just(Var("a")), st.integers(-9, 9).map(IntConst)),
    lambda kids: st.tuples(st.sampled_from("+-*"), kids, kids).map(
        lambda t: Arith(*t)),
    max_leaves=4,
)

_atom = st.one_of(
    st.booleans().map(BoolConst),
    st.just(Var("b")),
    st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _int_term, _int_term).map(lambda t: Cmp(*t)),
    st.tuples(st.sampled_from(["==", "!="]),
              st.sampled_from(["A", "B", "C"])).map(
        lambda t: Cmp(t[0], Var("c"), EnumConst(t[1]))),
)

formulas = st.recursive(
    _atom,
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(st.sampled_from(["&&", "||", "=>", "<=>"]), kids, kids).map(
            lambda t: BoolOp(*t)),
    ),
    max_leaves=12,
)

observations = st.fixed_dictionaries({
    "a": st.integers(0, 5),
    "b": st.booleans(),
    "c": st.sampled_from(["A", "B", "C"]),
})


@settings(max_examples=200, deadline=None)
@given(formulas, formulas, observations)
def test_de_morgan_and_implication_identities(f, g, obs):
    assert evaluate(Not(BoolOp("&&", f, g)), obs) == \
        evaluate(BoolOp("||", Not(f), Not(g)), obs)
    assert evaluate(BoolOp("=>", f, g), obs) == \
        evaluate(BoolOp("||", Not(f), g), obs)


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_pretty_parse_round_trip(f):
    assert parse_formula(pretty(f), PROP_SIG) == f


NEG_SIG = Signature([("x", BoundedInt(-3, 3))])


@pytest.mark.parametrize("text, tree", [
    ("x <= -2", Cmp("<=", Var("x"), IntConst(-2))),
    ("x * -1 + 3 >= -5",
     Cmp(">=", Arith("+", Arith("*", Var("x"), IntConst(-1)), IntConst(3)), IntConst(-5))),
    ("x - -2 == 0", Cmp("==", Arith("-", Var("x"), IntConst(-2)), IntConst(0))),
    ("-x < 1", Cmp("<", Arith("-", IntConst(0), Var("x")), IntConst(1))),
])
def test_prefix_minus_parses_and_prints_back(text, tree):
    assert parse_formula(text, NEG_SIG) == tree
    assert parse_formula(pretty(tree), NEG_SIG) == tree
    toks = tokenize(text)
    assert OracleFormulaParser(toks, NEG_SIG).parse_expression() == tree
    assert parse_with(FORMULA_GRAMMAR, toks, 0, NEG_SIG)[0] == tree


@pytest.mark.parametrize("text, col", [("-true", 2), ("x == -true", 7)])
def test_prefix_minus_of_a_boolean_is_a_sort_error_at_its_operand(text, col):
    with pytest.raises(SortMismatchError, match=r"operand of '-' is not an integer") as exc:
        parse_formula(text, NEG_SIG)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_bundled_formulas_total(bundled):
    # every label and invariant evaluates on every behaviour observation
    for sys_ in bundled.values():
        phis = list(sys_.s.states.values()) + [tr.inv for tr in sys_.s.transitions]
        for st_ in sys_.b.states.values():
            for phi in phis:
                assert evaluate(phi, st_.obs) in (True, False)


# ---------------------------------------------------------------------------
# The explicit-stack walkers and the regular-expression lexer against the
# recursive references and the character loop in helpers

DIFF_SIG = Signature([
    ("a", BoundedInt(-3, 5)),
    ("b", BoolSort()),
    ("c", EnumSort(("A", "B", "C"))),
])
DIFF_OBSERVATIONS = [{"a": a, "b": b, "c": c}
                     for a in range(-3, 6) for b in (False, True) for c in "ABC"]


def _outcome(fn, *args):
    """What ``fn`` returns, typed, or the type, text and place of its error."""
    try:
        value = fn(*args)
    except FormulaError as exc:
        return type(exc), str(exc), exc.line, exc.col
    return type(value), value


def _random_term(rng, depth):
    """An integer term over ``DIFF_SIG``."""
    if depth <= 0 or rng.random() < 0.3:
        return Var("a") if rng.random() < 0.5 else IntConst(rng.randint(0, 12))
    return Arith(rng.choice("+-*"), _random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_formula(rng, depth):
    """A well-sorted formula over ``DIFF_SIG``."""
    if depth <= 0 or rng.random() < 0.2:
        pick = rng.randrange(4)
        if pick == 0:
            return BoolConst(rng.random() < 0.5)
        if pick == 1:
            return Var("b")
        if pick == 2:
            return Cmp(rng.choice(("==", "!=")), Var("c"), EnumConst(rng.choice("ABC")))
        return Cmp(rng.choice(("==", "!=", "<", "<=", ">", ">=")),
                   _random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if rng.random() < 0.2:
        return Not(_random_formula(rng, depth - 1))
    return BoolOp(rng.choice(("&&", "||", "=>", "<=>")),
                  _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


_ANY_LEAVES = (Var("a"), Var("b"), Var("c"), Var("nope"), EnumConst("A"), EnumConst("Z"),
               IntConst(3), BoolConst(True))
_ANY_OPS = (("+", Arith), ("*", Arith), ("==", Cmp), ("!=", Cmp), ("<", Cmp),
            (">=", Cmp), ("&&", BoolOp), ("||", BoolOp), ("=>", BoolOp), ("<=>", BoolOp))


def _random_tree(rng, depth):
    """A formula tree of any shape over ``DIFF_SIG``, mostly ill-sorted."""
    if depth <= 0 or rng.random() < 0.25:
        return copy.copy(rng.choice(_ANY_LEAVES))  # a node of its own, with its own column
    if rng.random() < 0.15:
        return Not(_random_tree(rng, depth - 1))
    op, node_type = rng.choice(_ANY_OPS)
    return node_type(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _numbered(phi):
    """Positions that give each node of ``phi`` its own column, in pre-order."""
    positions, stack = {}, [phi]
    while stack:
        node = stack.pop()
        positions[id(node)] = (1, len(positions) + 1)
        if isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (Arith, Cmp, BoolOp)):
            stack += (node.right, node.left)
    return positions


def _structure_formulas():
    systems = [parse_model(models.path(n).read_text()) for n in models.NAMES]
    systems += [gen_random(k, *acceptance_schedule(k)) for k in range(500)]
    for sys_ in systems:
        phis = list(sys_.s.states.values()) + [tr.inv for tr in sys_.s.transitions]
        yield sys_, phis


def test_walkers_match_references_on_bundled_and_acceptance_formulas():
    checked = 0
    for sys_, phis in _structure_formulas():
        observations = [st.obs for st in sys_.b.states.values()]
        for phi in phis:
            assert pretty(phi) == oracle_pretty(phi)
            for obs in observations:
                assert _outcome(evaluate, phi, obs) == _outcome(oracle_evaluate, phi, obs)
                checked += 1
    assert checked > 10_000


def test_walkers_match_references_on_random_well_sorted_formulas():
    rng = random.Random(808)
    for _ in range(2000):
        phi = _random_formula(rng, rng.randint(0, 6))
        assert sort_check(phi, DIFF_SIG) is None
        assert pretty(phi) == oracle_pretty(phi)
        assert parse_formula(pretty(phi), DIFF_SIG) == phi
        for obs in rng.sample(DIFF_OBSERVATIONS, 8):
            assert _outcome(evaluate, phi, obs) == _outcome(oracle_evaluate, phi, obs)
        term = _random_term(rng, rng.randint(0, 5))
        assert sort_check(term, DIFF_SIG, expect="int") is None
        for obs in rng.sample(DIFF_OBSERVATIONS, 4):
            assert _outcome(evaluate, term, obs) == _outcome(oracle_evaluate, term, obs)


def test_sort_check_reports_the_references_first_fault_on_random_trees():
    rng = random.Random(809)
    faults = 0
    for _ in range(20_000):
        phi = _random_tree(rng, rng.randint(0, 6))
        positions = _numbered(phi)
        expect = rng.choice(("bool", "int"))
        want = _outcome(oracle_sort_check, phi, DIFF_SIG, positions, expect)
        assert _outcome(sort_check, phi, DIFF_SIG, positions, expect) == want, pretty(phi)
        assert pretty(phi) == oracle_pretty(phi)
        faults += want[0] is not type(None)
    assert faults > 15_000


def test_left_operand_fault_is_reported_before_the_right_one():
    sig = Signature([("x", EnumSort(("A", "B"))), ("b", BoolSort())])
    toks = tokenize("(x == A) + (b < 1) == 0")
    phi, _, positions = parse_with(FORMULA_GRAMMAR, toks, 0, sig)
    want = (SortMismatchError, "operand of '+' is not an integer (line 1, column 4)", 1, 4)
    assert _outcome(oracle_sort_check, phi, sig, positions) == want
    assert _outcome(sort_check, phi, sig, positions) == want


# ---------------------------------------------------------------------------
# Formulas deeper than the recursion limit

DEEP = 10_000


def _chain(build, leaf, n=DEEP):
    phi = leaf
    for _ in range(n):
        phi = build(phi)
    return phi


def test_walkers_on_a_left_deep_disjunction():
    phi = _chain(lambda x: BoolOp("||", x, Cmp("==", Var("a"), IntConst(4))), BoolConst(False))
    text = " || ".join(["false"] + ["a == 4"] * DEEP)
    assert pretty(phi) == text
    assert pretty(parse_formula(text, DIFF_SIG)) == text
    sort_check(phi, DIFF_SIG)
    assert evaluate(phi, {"a": 4, "b": False, "c": "A"}) is True
    assert evaluate(phi, {"a": 3, "b": False, "c": "A"}) is False


def test_walkers_on_nested_negations():
    phi = _chain(Not, Var("b"))
    text = "!(" * (DEEP - 1) + "!b" + ")" * (DEEP - 1)
    assert pretty(phi) == text
    assert pretty(parse_formula(text, DIFF_SIG)) == text
    sort_check(phi, DIFF_SIG)
    assert evaluate(phi, {"a": 0, "b": True, "c": "A"}) is True  # an even number of '!'
    with pytest.raises(SortMismatchError, match="negation of a non-boolean"):
        sort_check(_chain(Not, Var("a")), DIFF_SIG)


def test_walkers_on_a_right_deep_implication_and_a_long_sum():
    implication = _chain(lambda x: BoolOp("=>", Var("b"), x), Var("b"))
    assert pretty(implication) == " => ".join(["b"] * (DEEP + 1))
    assert evaluate(implication, {"a": 0, "b": False, "c": "A"}) is True
    total = Cmp("==", _chain(lambda x: Arith("+", x, Var("a")), IntConst(1)), IntConst(DEEP + 1))
    text = " + ".join(["1"] + ["a"] * DEEP) + f" == {DEEP + 1}"
    assert pretty(total) == text
    assert pretty(parse_formula(text, DIFF_SIG)) == text
    sort_check(total, DIFF_SIG)
    assert evaluate(total, {"a": 1, "b": False, "c": "A"}) is True
    # the fault deepest in the tree is the leftmost one, and the one reported
    bad = Cmp("==", _chain(lambda x: Arith("+", x, Var("a")), Var("c")), IntConst(0))
    with pytest.raises(SortMismatchError, match=r"operand of '\+' is not an integer"):
        sort_check(bad, DIFF_SIG)


# ---------------------------------------------------------------------------
# The lexer

def test_tokens_are_immutable():
    tok = tokenize("  x")[0]
    assert repr(tok) == "Token(kind='IDENT', text='x', line=1, col=3)"
    assert (tok.kind, tok.text, tok.line, tok.col) == tuple(tok)
    for field in ("kind", "text", "line", "col"):
        with pytest.raises(AttributeError):
            setattr(tok, field, None)


def test_tokenize_matches_the_character_loop_on_every_code_point():
    for c in range(0x110000):
        ch = chr(c)
        for text in (ch, f"a{ch}1"):
            assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text), hex(c)


LEX_ALPHABET = (list("azAZ_09 \t\r\n#=<>!&|-+*(){}[],:.;$\"'")
                + ["²", "½", " ", "\x0b", "\x0c", "é", "٣",
                   "Ⅷ", "́", " ", "ª", "\U0001d7d8", "一"])


def test_tokenize_matches_the_character_loop_on_random_strings():
    rng = random.Random(810)
    for _ in range(100_000):
        text = "".join(rng.choices(LEX_ALPHABET, k=rng.randint(0, 16)))
        first_line = rng.randint(1, 3)
        assert (_outcome(tokenize, text, first_line)
                == _outcome(oracle_tokenize, text, first_line)), repr(text)
