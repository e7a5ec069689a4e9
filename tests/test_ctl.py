import ast
import random

import pytest
from helpers import (
    acceptance_schedule,
    corridor_system,
    oracle_sat,
    oracle_witness,
    oracle_witness_eg,
    random_ctl,
    random_kripke,
    rules_system,
    single_loop_system,
)

from sbcheck import ctl
from sbcheck.adapt import STRONG_FORMULA, STRONG_INNER, WEAK_FORMULA, WEAK_INNER
from sbcheck.cli import gen_random
from sbcheck.constraints import (BoolConst, BoolOp, Cmp, EnumConst, FormulaSyntaxError, IntConst,
                                 Not, Var)
from sbcheck.ctl import (
    CtlEX,
    CtlWitnessError,
    Lasso,
    af,
    ag,
    ax,
    counterexample_ag,
    ef,
    eg,
    parse_ctl,
    sat_set,
    witness_eg,
)
from sbcheck.flatten import FlatState, build_flat
from sbcheck.kripke import to_kripke


def idx(flat, q, r, ph=None):
    return flat.states.index(FlatState(q, r, ph))


# ---------------------------------------------------------------------------
# Layering


def test_ctl_imports_only_the_parser_and_the_graph_kernel():
    # ctl owns the Kripke structure, so it needs nothing of the model layers
    with open(ctl.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] != "sbcheck":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            package.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            package.update(a.name.partition(".")[2] for a in node.names
                           if a.name.partition(".")[0] == "sbcheck")
    assert package == {"constraints", "graph"}
    assert ctl.Kripke.__module__ == ctl.__name__


# ---------------------------------------------------------------------------
# Parsing


def test_parse_weak_formula():
    inner = parse_ctl("(adapting => EF steady) && progress")
    assert parse_ctl("EG((adapting => EF steady) && progress)") == eg(inner)
    assert WEAK_FORMULA == eg(WEAK_INNER)


def test_parse_strong_formula():
    inner = parse_ctl("(adapting => AF steady) && progress")
    assert parse_ctl("AG((adapting => AF steady) && progress)") == ag(inner)
    assert STRONG_FORMULA == ag(STRONG_INNER)


def test_parse_unknown_atom():
    with pytest.raises(FormulaSyntaxError, match="unknown atom"):
        parse_ctl("EX foo")


@pytest.mark.parametrize("text, message, col", [
    ("EX foo", "unknown atom 'foo'", 4),
    ("EX $", "unexpected character '$'", 4),
    ("steady steady", "unexpected 'steady' after formula", 8),
    ("E[steady", "expected 'U', found end of formula", 9),
])
def test_a_ctl_parse_error_is_located_like_every_input_error(text, message, col):
    with pytest.raises(FormulaSyntaxError) as info:
        parse_ctl(text)
    exc = info.value
    assert (exc.message, exc.line, exc.col) == (message, 1, col)
    assert str(exc) == f"{message} (line 1, column {col})"


def test_parse_expansions_and_precedence():
    p = Var("progress")
    s = Var("steady")
    assert parse_ctl("AX steady") == ax(s)
    assert parse_ctl("AF steady") == af(s)
    assert parse_ctl("E[progress U steady]") == parse_ctl("E [ progress U steady ]")
    assert parse_ctl("adapting => steady || progress") == \
        BoolOp("=>", Var("adapting"), BoolOp("||", s, p))
    assert parse_ctl("!adapting && progress").left == Not(Var("adapting"))
    with pytest.raises(FormulaSyntaxError):
        parse_ctl("E[progress U steady")
    with pytest.raises(FormulaSyntaxError):
        parse_ctl("")


# ---------------------------------------------------------------------------
# Satisfaction sets


@pytest.mark.parametrize("node", [
    BoolOp("<=>", Var("steady"), Var("progress")),
    Cmp("==", IntConst(1), IntConst(1)),
    IntConst(1),
    EnumConst("steady"),
])
def test_a_constraint_node_outside_ctl_is_rejected(kripkes, node):
    # CTL shares the constraint tree, but only its boolean nodes over atoms
    k = kripkes["atv_s0"]
    for phi in (node, Not(node), ef(node)):
        with pytest.raises(TypeError, match="not a CTL node"):
            sat_set(k, phi)


def test_eg_true_is_everything(kripkes):
    for k in kripkes.values():
        assert sat_set(k, eg(BoolConst(True))) == frozenset(range(k.n_states))


def test_ef_steady_on_atv_s1(atv_s1, flats, kripkes):
    k = kripkes["atv_s1"]
    got = sat_set(k, parse_ctl("E[true U steady]"))
    assert got == oracle_sat(k, ef(Var("steady")))
    # the successful adaptation path stays inside the set
    ph = ("v == V0 || v == V1", "r0")
    path = [("3", "r0", None), ("8", "r0", ph), ("11", "r0", ph),
            ("10", "r0", ph), ("13", "r0", ph), ("4", "r0", ph), ("0", "r0", None)]
    for q, r, p in path:
        assert idx(flats["atv_s1"], q, r, p) in got


def test_af_steady_false_at_dead_state(bone_s1, flats, kripkes):
    k = kripkes["bone_s1"]
    ph = ("Ob > 0 && Oy == 0", "r5")
    t = idx(flats["bone_s1"], "0_1_0", "r4", ph)
    assert t not in sat_set(k, parse_ctl("AF steady"))


def test_adaptability_formulas_at_initial_states(kripkes):
    k1 = kripkes["atv_s1"]
    assert k1.initial in sat_set(k1, WEAK_FORMULA)
    assert k1.initial not in sat_set(k1, STRONG_FORMULA)
    k0 = kripkes["atv_s0"]
    assert k0.initial in sat_set(k0, STRONG_FORMULA)


# ---------------------------------------------------------------------------
# Witnesses and counterexamples


def _assert_lasso_shape(k, lasso):
    seq = list(lasso.prefix) + list(lasso.cycle)
    for a, b in zip(seq, seq[1:]):
        assert b in k.succ[a]
    assert lasso.cycle
    assert lasso.cycle[0] in k.succ[lasso.cycle[-1]]


def test_witness_on_atv_s0(kripkes):
    k = kripkes["atv_s0"]
    lasso = witness_eg(k, sat_set(k, eg(WEAK_INNER)), k.initial)
    _assert_lasso_shape(k, lasso)
    good = sat_set(k, WEAK_INNER)
    assert set(lasso.prefix) | set(lasso.cycle) <= good


def test_witness_on_atv_s1(kripkes):
    k = kripkes["atv_s1"]
    lasso = witness_eg(k, sat_set(k, eg(WEAK_INNER)), k.initial)
    _assert_lasso_shape(k, lasso)
    assert set(lasso.prefix) | set(lasso.cycle) <= sat_set(k, WEAK_INNER)


def test_witness_single_self_loop():
    k = to_kripke(build_flat(single_loop_system()))
    lasso = witness_eg(k, sat_set(k, eg(Var("steady"))), k.initial)
    assert lasso == Lasso((), (k.initial,))


def test_witness_precondition_is_enforced(kripkes):
    k = kripkes["bone_s1"]
    with pytest.raises(CtlWitnessError):
        witness_eg(k, sat_set(k, eg(BoolConst(False))), k.initial)


def test_counterexample_on_atv_s1(kripkes):
    k = kripkes["atv_s1"]
    path = counterexample_ag(k, sat_set(k, STRONG_INNER), k.initial)
    assert path[0] == k.initial
    for a, b in zip(path, path[1:]):
        assert b in k.succ[a]
    bad = path[-1]
    assert bad not in sat_set(k, STRONG_INNER)
    assert "adapting" in k.labels(bad)
    assert bad not in sat_set(k, af(Var("steady")))


def test_counterexample_on_bone_s1(kripkes):
    k = kripkes["bone_s1"]
    path = counterexample_ag(k, sat_set(k, STRONG_INNER), k.initial)
    assert path[-1] not in sat_set(k, STRONG_INNER)


def test_counterexample_trivially_false_inner(kripkes):
    k = kripkes["atv_s0"]
    assert counterexample_ag(k, sat_set(k, BoolConst(False)), k.initial) == (k.initial,)


def test_counterexample_precondition_is_enforced(kripkes):
    # no state outside the set is reachable: the path is empty
    k = kripkes["atv_s0"]
    assert counterexample_ag(k, sat_set(k, BoolConst(True)), k.initial) == ()


# ---------------------------------------------------------------------------
# Properties


def test_dualities_on_random_structures():
    rng = random.Random(5)
    for _ in range(40):
        k = random_kripke(rng, rng.randint(1, 12))
        phi = random_ctl(rng, 3)
        everything = frozenset(range(k.n_states))
        assert sat_set(k, ag(phi)) == everything - sat_set(k, ef(Not(phi)))
        assert sat_set(k, af(phi)) == everything - sat_set(k, eg(Not(phi)))
        assert sat_set(k, ax(phi)) == everything - sat_set(k, CtlEX(Not(phi)))


def test_ef_monotone_in_the_argument():
    rng = random.Random(6)
    for _ in range(40):
        k = random_kripke(rng, rng.randint(1, 12))
        phi = random_ctl(rng, 3)
        chi = random_ctl(rng, 3)
        weaker = BoolOp("||", phi, chi)  # phi => weaker is valid
        assert sat_set(k, ef(phi)) <= sat_set(k, ef(weaker))


def test_witnesses_reverify_on_random_structures():
    rng = random.Random(7)
    done = 0
    while done < 30:
        k = random_kripke(rng, rng.randint(1, 10))
        phi = random_ctl(rng, 2)
        good = sat_set(k, eg(phi))
        if k.initial in good:
            lasso = witness_eg(k, good, k.initial)
            _assert_lasso_shape(k, lasso)
            assert set(lasso.prefix) | set(lasso.cycle) <= sat_set(k, phi)
            done += 1
        bad = frozenset(range(k.n_states)) - sat_set(k, phi)
        if any(t in bad for t in _reachable(k)):
            path = counterexample_ag(k, sat_set(k, phi), k.initial)
            assert path[-1] in bad


def _reachable(k):
    seen = {k.initial}
    stack = [k.initial]
    while stack:
        x = stack.pop()
        for y in k.succ[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def test_checker_matches_oracle_on_random_structures():
    rng = random.Random(8)
    for _ in range(120):
        k = random_kripke(rng, rng.randint(1, 12))
        phi = random_ctl(rng, rng.randint(1, 5))
        assert sat_set(k, phi) == oracle_sat(k, phi)


def test_witness_matches_reference_oracle(bundled, monkeypatch):
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(500)]
    systems += [rules_system(seed) for seed in range(50)]
    systems += [corridor_system(n, seed) for n in (1, 2) for seed in (0, 1)]
    inners = (WEAK_INNER, STRONG_INNER, Not(Var("steady")),
              Var("steady"), Var("progress"))
    pairs = [(to_kripke(build_flat(s)), inner) for s in systems for inner in inners]
    rng = random.Random(9)
    pairs += [(random_kripke(rng, rng.randint(1, 12)), random_ctl(rng, rng.randint(1, 4)))
              for _ in range(400)]
    regions = []
    real_reach = ctl.reach

    def counted_reach(*args, **kwargs):
        regions.append(args[1])
        return real_reach(*args, **kwargs)

    monkeypatch.setattr(ctl, "reach", counted_reach)

    def search(k, good, t):
        regions.clear()
        lasso = witness_eg(k, good, t)
        # the region pass runs exactly for starts on no cycle, the ones
        # whose lasso has a prefix
        assert bool(regions) == bool(lasso.prefix), (k.n_states, t)
        return lasso

    prefixes = set()
    for k, inner in pairs:
        good = sat_set(k, eg(inner))
        for t in sorted(good):
            lasso = search(k, good, t)
            assert lasso == oracle_witness_eg(k, inner, t), (k.n_states, inner, t)
            prefixes.add(bool(lasso.prefix))
        # the sets the verdicts pass: an AG set where AG holds (unless it is
        # the EG set, searched above), and the EG !steady set from the end
        # of a counterexample
        always = sat_set(k, ag(inner))
        cases = [] if always == good else [(always, t) for t in sorted(always)]
        if k.initial not in always:
            never_steady = sat_set(k, eg(Not(Var("steady"))))
            end = counterexample_ag(k, sat_set(k, inner), k.initial)[-1]
            if end in never_steady:
                cases.append((never_steady, end))
        for given, t in cases:
            lasso = search(k, given, t)
            assert lasso == oracle_witness(k, given, t), (k.n_states, inner, t)
            prefixes.add(bool(lasso.prefix))
    assert prefixes == {False, True}
