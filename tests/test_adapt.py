import functools
import gc
import random
import weakref

import pytest
from helpers import (
    acceptance_schedule,
    cascade_ladder_system,
    corridor_system,
    fan_system,
    ladder_system,
    opened_corridor_system,
    oracle_check,
    oracle_flat,
    oracle_grid,
    oracle_relation,
    oracle_strong_relation,
    rules_system,
    spread_fan_system,
    steady_pairs,
)

from sbcheck import adapt, ctl, models
from sbcheck.adapt import (
    STRONG_INNER,
    WEAK_INNER,
    AdaptRelation,
    PreconditionError,
    check_strong,
    check_weak,
    greatest_strong_relation,
    is_strong_adaptation,
    is_weak_adaptation,
    state_adaptable,
    strong_relation,
    weak_relation,
)
from sbcheck.cli import gen_random
from sbcheck.constraints import BoundedInt, Signature, parse_formula
from sbcheck.ctl import sat_set
from sbcheck.flatten import build_flat
from sbcheck.graph import reach
from sbcheck.kripke import to_kripke
from sbcheck.model import (
    BLevel,
    BState,
    SBSystem,
    SLevel,
    StateBudgetError,
    STransition,
    parse_model,
)

ATV_S0_PAIRS = {("0", "r0"), ("1", "r0"), ("2", "r0"), ("3", "r0"),
                ("11", "r1"), ("10", "r1"), ("13", "r1")}
ATV_S1_WEAK_PAIRS = {("0", "r0"), ("1", "r0"), ("2", "r0"), ("3", "r0")}
BONE_S0_PAIRS = {("0_0_1", "r0"), ("0_0_2", "r0"), ("2_0_0", "r1"),
                 ("1_0_0", "r1"), ("0_1_0", "r2")}
BONE_S1_WEAK_PAIRS = {
    ("0_0_1", "r0"), ("0_0_2", "r0"), ("2_0_0", "r1"), ("1_0_0", "r1"),
    ("0_1_0", "r2"), ("0_0_2", "r3"), ("2_0_0", "r4"), ("0_4_0", "r5"),
    ("0_3_0", "r5"), ("0_2_0", "r2"),
}


# ---------------------------------------------------------------------------
# Verdicts


def test_verdict_table(bundled):
    expected = {"atv_s0": (True, True), "atv_s1": (True, False),
                "bone_s0": (True, True), "bone_s1": (True, False)}
    for name, sys_ in bundled.items():
        assert (check_weak(sys_).holds, check_strong(sys_).holds) == expected[name], name


def _assert_run(sys_, evidence, inner=None):
    """Evidence states must be edge-connected in the Kripke structure and,
    when ``inner`` is given, all satisfy it."""
    flat = build_flat(sys_)
    k = to_kripke(flat)
    seq = [flat.states.index(f) for f in evidence.states()]
    for a, b in zip(seq, seq[1:]):
        assert b in k.succ[a]
    if evidence.cycle:
        head = flat.states.index(evidence.cycle[0])
        last = flat.states.index(evidence.cycle[-1])
        assert head in k.succ[last]
    if inner is not None:
        good = sat_set(k, inner)
        assert all(t in good for t in seq)


def test_weak_witnesses_self_verify(bundled):
    for sys_ in bundled.values():
        v = check_weak(sys_)
        assert v.holds
        _assert_run(sys_, v.evidence, WEAK_INNER)


def test_strong_witnesses_self_verify(atv_s0, bone_s0):
    for sys_ in (atv_s0, bone_s0):
        v = check_strong(sys_)
        assert v.holds
        _assert_run(sys_, v.evidence, STRONG_INNER)


def test_strong_counterexample_reaches_deadlock(bone_s1):
    v = check_strong(bone_s1)
    assert not v.holds
    _assert_run(bone_s1, v.evidence)
    # ends in the self-loop of the one successor-free adapting state
    assert len(v.evidence.cycle) == 1
    dead = v.evidence.cycle[0]
    assert (dead.q, dead.r) == ("0_1_0", "r4")
    assert dead.phase == ("Ob > 0 && Oy == 0", "r5")


def test_strong_counterexample_enters_adapting_cycle(atv_s1):
    v = check_strong(atv_s1)
    assert not v.holds
    _assert_run(atv_s1, v.evidence)
    assert v.evidence.cycle
    assert all(not f.is_steady for f in v.evidence.cycle)


# ---------------------------------------------------------------------------
# Relation construction


def test_strong_relation_atv_s0(atv_s0):
    rel = strong_relation(atv_s0)
    assert rel is not None and rel.pairs == frozenset(ATV_S0_PAIRS)


def test_strong_relation_bone_s0(bone_s0):
    rel = strong_relation(bone_s0)
    assert rel is not None and rel.pairs == frozenset(BONE_S0_PAIRS)


def test_strong_relation_absent(atv_s1, bone_s1):
    assert strong_relation(atv_s1) is None
    assert strong_relation(bone_s1) is None


def test_weak_relation_atv_s1(atv_s1):
    rel = weak_relation(atv_s1)
    assert ATV_S1_WEAK_PAIRS <= rel.pairs
    assert (atv_s1.b.initial, atv_s1.s.initial) in rel


def test_weak_relation_bone_s1(bone_s1):
    rel = weak_relation(bone_s1)
    assert BONE_S1_WEAK_PAIRS <= rel.pairs


def test_weak_relation_excludes_deadlocked_initial():
    sig = Signature([("x", BoundedInt(0, 1))])
    b = BLevel([BState("q0", {"x": 0})], "q0", [])
    s = SLevel([("r0", parse_formula("x == 0", sig))], "r0", [])
    sys_ = SBSystem("stuck", sig, b, s)
    assert ("q0", "r0") not in weak_relation(sys_)


# ---------------------------------------------------------------------------
# Relation verification


def test_paper_weak_relation_is_weak_not_strong(atv_s1):
    rel = AdaptRelation(frozenset(ATV_S1_WEAK_PAIRS))
    assert is_weak_adaptation(atv_s1, rel).ok
    res = is_strong_adaptation(atv_s1, rel)
    assert not res.ok
    assert any(v.pair == ("3", "r0") and v.clause == "iii" for v in res.violations)


def test_strong_relations_verify(atv_s0, bone_s0):
    assert is_strong_adaptation(atv_s0, AdaptRelation(frozenset(ATV_S0_PAIRS))).ok
    assert is_strong_adaptation(bone_s0, AdaptRelation(frozenset(BONE_S0_PAIRS))).ok


def test_bone_s1_weak_pairs_fail_strong_check(bone_s1):
    rel = AdaptRelation(frozenset(BONE_S1_WEAK_PAIRS))
    assert is_weak_adaptation(bone_s1, rel).ok
    res = is_strong_adaptation(bone_s1, rel)
    assert not res.ok
    assert any(v.pair == ("2_0_0", "r4") for v in res.violations)


def test_empty_relation_is_vacuously_fine(atv_s0):
    empty = AdaptRelation(frozenset())
    assert is_weak_adaptation(atv_s0, empty).ok
    assert is_strong_adaptation(atv_s0, empty).ok


def test_unknown_ids_rejected(atv_s0):
    with pytest.raises(ValueError):
        is_weak_adaptation(atv_s0, AdaptRelation(frozenset({("zz", "r0")})))


# ---------------------------------------------------------------------------
# Per-state queries


def test_state_adaptable_examples(atv_s0, atv_s1):
    assert state_adaptable(atv_s0, "3", "r0", "strong") is True
    assert state_adaptable(atv_s1, "3", "r0", "strong") is False
    assert state_adaptable(atv_s1, "3", "r0", "weak") is True


def test_state_adaptable_preconditions(atv_s0):
    with pytest.raises(PreconditionError):
        state_adaptable(atv_s0, "8", "r0", "weak")  # 8 has c=1
    with pytest.raises(PreconditionError):
        state_adaptable(atv_s0, "77", "r0", "weak")
    with pytest.raises(ValueError):
        state_adaptable(atv_s0, "3", "r0", "sideways")


def test_state_adaptable_off_reachable_pair(bone_s0):
    # (0_2_0, r2) is not reachable steadily from the initial state
    assert ("0_2_0", "r2") not in steady_pairs(build_flat(bone_s0))
    assert state_adaptable(bone_s0, "0_2_0", "r2", "strong") is True


# ---------------------------------------------------------------------------
# Properties of the relation algebra


def _random_systems(seed, count, max_b=10):
    rng = random.Random(seed)
    for _ in range(count):
        yield gen_random(rng.randrange(10**6), rng.randint(1, max_b),
                         rng.randint(1, 4), rng.uniform(0.05, 1.0))


def _shrunk_accepted(sys_, base, checker, rng):
    pairs = set(base.pairs)
    order = sorted(pairs)
    rng.shuffle(order)
    for p in order:
        trial = AdaptRelation(frozenset(pairs - {p}))
        if checker(sys_, trial).ok:
            pairs.discard(p)
            if rng.random() < 0.5:
                break
    return AdaptRelation(frozenset(pairs))


def test_union_closure_weak_and_strong():
    rng = random.Random(321)
    for sys_ in _random_systems(900, 40):
        rw = weak_relation(sys_)
        r1 = _shrunk_accepted(sys_, rw, is_weak_adaptation, rng)
        r2 = _shrunk_accepted(sys_, rw, is_weak_adaptation, rng)
        union = AdaptRelation(r1.pairs | r2.pairs)
        assert is_weak_adaptation(sys_, union).ok
        gs = greatest_strong_relation(sys_)
        s1 = _shrunk_accepted(sys_, gs, is_strong_adaptation, rng)
        s2 = _shrunk_accepted(sys_, gs, is_strong_adaptation, rng)
        assert is_strong_adaptation(sys_, AdaptRelation(s1.pairs | s2.pairs)).ok


def test_strong_implies_weak():
    for sys_ in _random_systems(901, 60):
        rw = weak_relation(sys_)
        assert greatest_strong_relation(sys_).pairs <= rw.pairs
        sr = strong_relation(sys_)
        if sr is not None:
            assert sr.pairs <= rw.pairs


def test_strong_propagates_to_reachable_steady_pairs():
    for sys_ in _random_systems(902, 60):
        gs = greatest_strong_relation(sys_)
        if (sys_.b.initial, sys_.s.initial) in gs:
            assert steady_pairs(build_flat(sys_)) <= gs.pairs


def test_computed_relations_self_verify(bundled):
    for sys_ in bundled.values():
        assert is_weak_adaptation(sys_, weak_relation(sys_)).ok
        assert is_strong_adaptation(sys_, greatest_strong_relation(sys_)).ok
        sr = strong_relation(sys_)
        if sr is not None:
            assert is_strong_adaptation(sys_, sr).ok


def test_weak_relation_is_greatest():
    rng = random.Random(903)
    for sys_ in _random_systems(904, 40):
        rw = weak_relation(sys_)
        accepted = _shrunk_accepted(sys_, rw, is_weak_adaptation, rng)
        assert accepted.pairs <= rw.pairs


def test_paper_relations_below_computed(atv_s0, atv_s1, bone_s0, bone_s1):
    assert ATV_S0_PAIRS <= weak_relation(atv_s0).pairs
    assert ATV_S1_WEAK_PAIRS <= weak_relation(atv_s1).pairs
    assert BONE_S0_PAIRS <= weak_relation(bone_s0).pairs
    assert BONE_S1_WEAK_PAIRS <= weak_relation(bone_s1).pairs


def test_prop5_bridge_on_random_systems():
    from sbcheck.adapt import STRONG_FORMULA
    for sys_ in _random_systems(905, 80):
        k = to_kripke(build_flat(sys_))
        assert (strong_relation(sys_) is not None) == \
            (k.initial in sat_set(k, STRONG_FORMULA))


def test_fixpoints_equal_union_of_all_accepted_relations():
    # exhaustive subset enumeration on tiny grids: the computed relations
    # must equal the union of every relation the clause checkers accept
    from itertools import combinations
    count = 0
    for sys_ in _random_systems(906, 120, max_b=4):
        grid = sorted(
            (q, r)
            for q in sys_.b.states for r in sys_.s.states
            if sys_.sat(q, sys_.s.label(r)))
        if len(grid) > 8:
            continue
        count += 1
        union_weak = set()
        union_strong = set()
        for size in range(1, len(grid) + 1):
            for combo in combinations(grid, size):
                rel = AdaptRelation(frozenset(combo))
                if is_weak_adaptation(sys_, rel).ok:
                    union_weak |= rel.pairs
                if is_strong_adaptation(sys_, rel).ok:
                    union_strong |= rel.pairs
        assert weak_relation(sys_).pairs == frozenset(union_weak), sys_.name
        assert greatest_strong_relation(sys_).pairs == frozenset(union_strong), sys_.name
    assert count >= 60


# ---------------------------------------------------------------------------
# The integer relation route against the per-pair FlatState reference


def _assert_relations_match_oracle(sys_):
    assert weak_relation(sys_).pairs == oracle_relation(sys_, "weak"), sys_.name
    assert greatest_strong_relation(sys_).pairs == oracle_relation(sys_, "strong"), sys_.name
    sr = strong_relation(sys_)
    assert (None if sr is None else sr.pairs) == oracle_strong_relation(sys_), sys_.name
    # the whole grid breaks only the clauses that no relation can mend; every
    # other grid pair leaves successors and endpoints unrelated as well
    grid = oracle_grid(sys_)
    for pairs in (grid, grid[::2]):
        rel = AdaptRelation.of(pairs)
        for mode, checker in (("weak", is_weak_adaptation),
                              ("strong", is_strong_adaptation)):
            got = [(v.pair, v.clause, v.message) for v in checker(sys_, rel).violations]
            assert got == oracle_check(sys_, rel.pairs, mode), (sys_.name, mode)


def test_relation_route_matches_reference_oracle(bundled):
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(500)]
    systems += [rules_system(seed) for seed in range(50)]
    systems += [fan_system(n) for n in (1, 2, 5, 17)]
    systems += [spread_fan_system(n) for n in (1, 2, 5, 17)]
    systems += [ladder_system(n) for n in (1, 2, 5, 17)]
    # ends that leave one after another, the entering pair only after the last
    systems += [cascade_ladder_system(n) for n in (1, 2, 5, 17)]
    # cyclic pair graphs through adaptation gaps, where every pair stays, and
    # a line whose dead end deletes every pair, one after another
    systems += [corridor_system(1), corridor_system(2), opened_corridor_system(2)]
    for sys_ in systems:
        _assert_relations_match_oracle(sys_)


def test_reached_pairs_are_the_flat_steady_pairs():
    # strong_relation's candidate: the pairs reached from the initial pair
    # by steady steps and completed phases, stepping each flat state once;
    # freshly loaded systems, whose relation memo is empty
    systems = [models.load(name) for name in models.NAMES]
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(500)]
    systems += [rules_system(seed) for seed in range(50)]
    for n in (1, 2, 5, 17):
        systems += [fan_system(n), spread_fan_system(n), ladder_system(n)]
    systems += [corridor_system(n) for n in (1, 2)]
    for sys_ in systems:
        an = adapt._Analysis(sys_)
        reached = reach(lambda pair: an.facts(pair).next,
                        (an.rules.steady(sys_.b.initial, sys_.s.initial),))
        pairs = frozenset(map(an.rules.pair, reached))
        flat = build_flat(sys_)
        assert pairs == steady_pairs(flat), sys_.name
        assert pairs == {(q, r) for q, r, phase in oracle_flat(sys_)[0]
                         if phase is None}, sys_.name
        assert an.rules.stepped == flat.n_states, sys_.name


def test_fan_and_ladder_relations():
    fan, ladder = fan_system(4), ladder_system(4)
    assert weak_relation(fan).pairs == greatest_strong_relation(fan).pairs == \
        {(f"a{i}", "r0") for i in range(4)} | {("e", "r1")}
    assert greatest_strong_relation(ladder).pairs == \
        {("s", "r0")} | {(f"e{i}", "r1") for i in range(4)}
    # dropping one endpoint breaks the strong clause (iii) of the entering pair
    rel = AdaptRelation.of({("s", "r0")} | {(f"e{i}", "r1") for i in range(3)})
    assert [str(v) for v in is_strong_adaptation(ladder, rel).violations] == [
        "(s, r0) clause (iii): phase r0 -> r1 ends on unrelated pairs [('e3', 'r1')]"]
    assert is_weak_adaptation(ladder, rel).ok


# ---------------------------------------------------------------------------
# A documented boundary case of the two weak-adaptability routes


def test_weak_routes_can_diverge_on_doomed_escape_credit():
    # The logical route accepts a run that adapts forever while every visited
    # state keeps an escape path to some steady state; the relational route
    # additionally demands that a completed phase lands on a pair that stays
    # coherent forever.  Here the only phase endpoint leads into a dead end,
    # so the two routes disagree by design of their definitions.
    sig = Signature([("x", BoundedInt(0, 2))])
    b = BLevel(
        [BState("q0", {"x": 0}), BState("a1", {"x": 2}), BState("a2", {"x": 2}),
         BState("a3", {"x": 2}), BState("e", {"x": 1}), BState("d", {"x": 1})],
        "q0",
        [("q0", "a1"), ("a1", "a2"), ("a2", "a1"), ("a2", "a3"),
         ("a3", "e"), ("e", "d")],
    )
    s = SLevel(
        [("r0", parse_formula("x == 0", sig)), ("r1", parse_formula("x == 1", sig))],
        "r0",
        [STransition("r0", parse_formula("true", sig), "r1")],
    )
    sys_ = SBSystem("doomed_escape", sig, b, s)
    assert check_weak(sys_).holds is True
    assert ("q0", "r0") not in weak_relation(sys_)
    # the strong routes agree with each other here
    assert check_strong(sys_).holds is False
    assert strong_relation(sys_) is None


def test_weak_verdict_labels_its_formula_once(atv_s0, monkeypatch):
    labelled = []
    label = ctl.sat_set

    def counted(k, phi):
        labelled.append(phi)
        return label(k, phi)

    monkeypatch.setattr(ctl, "sat_set", counted)
    monkeypatch.setattr(adapt, "sat_set", counted)
    assert check_weak(atv_s0).holds
    assert labelled == [adapt.WEAK_FORMULA]  # the witness reuses the verdict's set
    labelled.clear()
    assert check_strong(atv_s0).holds
    # under AG the witness region is the same in the AG set as in the EG set
    assert labelled == [adapt.STRONG_FORMULA]


# ---------------------------------------------------------------------------
# One initial-rooted structure per system


def _counting(monkeypatch, *names):
    """Count the calls of ``adapt``'s functions ``names`` by name."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(adapt, name, wrap(name, getattr(adapt, name)))
    return calls


@pytest.mark.parametrize("first, second", [(check_weak, check_strong),
                                           (check_strong, check_weak)])
def test_both_verdicts_share_one_build(first, second, monkeypatch):
    calls = _counting(monkeypatch, "build_flat", "to_kripke")
    sys_ = models.load("atv_s1")
    first(sys_)
    second(sys_)
    first(sys_)
    assert calls == {"build_flat": 1, "to_kripke": 1}


@pytest.mark.parametrize("make", [
    functools.partial(models.load, "atv_s0"), functools.partial(models.load, "bone_s0"),
    functools.partial(corridor_system, 1), functools.partial(corridor_system, 2)],
    ids=["atv_s0", "bone_s0", "corridor1", "corridor2"])
@pytest.mark.parametrize("first, second", [(check_weak, check_strong),
                                           (check_strong, check_weak)])
def test_a_strongly_adaptable_system_searches_one_witness(make, first, second,
                                                          monkeypatch):
    calls = _counting(monkeypatch, "witness_eg")
    sys_ = make()
    assert first(sys_).holds and second(sys_).holds
    assert calls == {"witness_eg": 1}


@pytest.mark.parametrize("first, second", [(check_weak, check_strong),
                                           (check_strong, check_weak)])
def test_a_failing_strong_verdict_reuses_no_witness(first, second, monkeypatch):
    calls = _counting(monkeypatch, "witness_eg")
    alone = []
    for verdict in (first, second):
        verdict(models.load("atv_s1"))
        alone.append(calls["witness_eg"])
        calls["witness_eg"] = 0
    sys_ = models.load("atv_s1")  # weak holds, strong fails
    first(sys_)
    second(sys_)
    assert calls == {"witness_eg": sum(alone)}


def test_failing_verdicts_pick_their_evidence_without_a_witness_error(bundled, monkeypatch):
    # CtlWitnessError means a bug of the caller, so no verdict may provoke it
    raised = []

    def watched(fn):
        def call(*args):
            try:
                return fn(*args)
            except ctl.CtlWitnessError as exc:
                raised.append(exc)
                raise
        return call

    for name in ("witness_eg", "counterexample_ag"):
        monkeypatch.setattr(adapt, name, watched(getattr(adapt, name)))
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(500)]
    holds = [verdict(s).holds for s in systems for verdict in (check_weak, check_strong)]
    assert not all(holds) and any(holds)
    assert raised == []


def test_a_checked_system_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()  # from here on only reference counts free anything
    try:
        held = len(adapt._structures)
        sys_ = models.load("bone_s1")
        check_weak(sys_)
        check_strong(sys_)
        assert len(adapt._structures) == held + 1
        assert adapt._structures[sys_][2]  # the weak witness, decoded
        ref = weakref.ref(sys_)
        del sys_
        assert ref() is None
        assert len(adapt._structures) == held
    finally:
        gc.enable()


def test_per_pair_queries_and_relation_route_build_their_own(monkeypatch):
    sys_ = models.load("atv_s0")
    check_weak(sys_)
    check_strong(sys_)
    read: dict[str, list] = {"_structures": [], "_relations": []}

    def watch(memo):
        class Watched(weakref.WeakKeyDictionary):
            def get(self, key, default=None):
                read[memo].append(key)
                return super().get(key, default)

            def setdefault(self, key, default=None):
                read[memo].append(key)
                return super().setdefault(key, default)

        monkeypatch.setattr(adapt, memo, Watched(getattr(adapt, memo)))

    watch("_structures")
    watch("_relations")
    calls = _counting(monkeypatch, "build_flat", "to_kripke")
    for q, r in sorted(ATV_S0_PAIRS):
        state_adaptable(sys_, q, r, "weak")
        state_adaptable(sys_, q, r, "strong")
    per_pair = dict.fromkeys(("build_flat", "to_kripke"), 2 * len(ATV_S0_PAIRS))
    assert calls == per_pair
    assert read == {"_structures": [], "_relations": []}
    assert strong_relation(sys_) is not None  # the relation route builds nothing
    assert calls == per_pair
    weak_relation(sys_)
    greatest_strong_relation(sys_)
    rel = AdaptRelation.of(ATV_S0_PAIRS)
    assert is_weak_adaptation(sys_, rel).ok and is_strong_adaptation(sys_, rel).ok
    assert calls == per_pair
    # the relation route reads its own memo, once per query, and not the verdicts'
    assert read == {"_structures": [], "_relations": [sys_] * 5}
    check_strong(sys_)  # the verdicts read theirs, and not the relation memo
    check_weak(sys_)
    assert read == {"_structures": [sys_] * 2, "_relations": [sys_] * 5}
    assert calls == per_pair


def test_memoised_verdicts_equal_fresh_ones():
    makers = [functools.partial(models.load, name) for name in models.NAMES]
    makers += [functools.partial(gen_random, seed, *acceptance_schedule(seed))
               for seed in range(500)]
    makers += [functools.partial(corridor_system, n) for n in (1, 2, 3)]
    makers += [functools.partial(rules_system, seed) for seed in range(50)]
    for make in makers:
        fresh = check_weak(make()), check_strong(make())
        sys_ = make()
        assert (check_weak(sys_), check_strong(sys_)) == fresh, sys_.name
        sys_ = make()
        strong = check_strong(sys_)
        assert (check_weak(sys_), strong) == fresh, sys_.name


def test_a_memoised_structure_keeps_to_the_budget():
    sys_ = models.load("atv_s0")  # 9 flat states
    with pytest.raises(StateBudgetError, match="build_flat passed the state budget of 8"):
        check_weak(sys_, max_states=8)
    assert check_weak(sys_, max_states=9).holds
    with pytest.raises(StateBudgetError, match="build_flat passed the state budget of 8"):
        check_strong(sys_, max_states=8)
    assert check_strong(sys_).holds


def test_a_budgeted_verdict_neither_reads_nor_fills_the_memo(monkeypatch):
    # the verdict-side twin of the relation route's rule below
    steps = _step_counter(monkeypatch)
    for make in _relation_population():
        sys_ = make()
        n_flat = build_flat(sys_).n_states
        verdict = check_weak(sys_)
        entry = adapt._structures[sys_]
        witnesses = dict(entry[2])
        steps[0] = 0
        assert check_weak(sys_, max_states=n_flat) == verdict, sys_.name
        assert steps[0] == n_flat, sys_.name
        assert adapt._structures[sys_] is entry and entry[2] == witnesses, sys_.name
        fresh = make()
        check_strong(fresh, max_states=n_flat)
        assert fresh not in adapt._structures, sys_.name


def test_verdicts_on_a_deep_invariant_hash_and_compare():
    # decoded states name their phase by its printed invariant, so hashing
    # or comparing them never walks the 4000-deep formula tree
    text = models.path("atv_s1").read_text(encoding="utf-8").replace(
        "inv v==V0 || v==V1", "inv " + "!" * 4000 + "(v==V0 || v==V1)")
    a, b = parse_model(text), parse_model(text)
    flat = build_flat(a)
    assert len(set(flat.states)) == flat.n_states
    for check in (check_weak, check_strong):
        va, vb = check(a), check(b)
        assert va == vb and hash(va) == hash(vb)
        assert {va: check.__name__}[vb] == check.__name__


def test_a_relation_naming_an_unknown_state_fails_its_precondition(atv_s1):
    for pair in (("nope", "r0"), ("0", "nope")):
        for check in (is_weak_adaptation, is_strong_adaptation):
            with pytest.raises(PreconditionError, match="^unknown .* state 'nope' in relation$"):
                check(atv_s1, AdaptRelation.of([pair]))


def _stepped(monkeypatch, run):
    """The result of ``run()`` and the flat states its relation route stepped."""
    made = []

    class Counted(adapt._Analysis):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(adapt, "_Analysis", Counted)
        result = run()
    return result, sum(an.rules.stepped for an in made)


def _relation_runs(sys_):
    """The five relation entry points, each taking a system and keywords;
    the checks check the satisfaction grid of ``sys_``."""
    grid = AdaptRelation.of(oracle_grid(sys_))
    return [weak_relation, greatest_strong_relation,
            functools.partial(is_weak_adaptation, rel=grid),
            functools.partial(is_strong_adaptation, rel=grid),
            strong_relation]


def test_relation_route_keeps_to_the_budget(monkeypatch):
    makers = [functools.partial(models.load, name) for name in models.NAMES]
    makers += [functools.partial(gen_random, seed, *acceptance_schedule(seed))
               for seed in range(100)]
    for make in makers:
        sys_ = make()
        runs = _relation_runs(sys_)
        # each run's steps, measured alone on a freshly loaded system
        measured = [_stepped(monkeypatch, functools.partial(run, make())) for run in runs]
        for run in runs:
            run(sys_)  # every unbudgeted query, filling the system's memo
        for run, (result, n) in zip(runs, measured):
            assert n > 0, sys_.name
            assert run(sys_, max_states=n) == result, sys_.name
            with pytest.raises(StateBudgetError) as exc:
                run(sys_, max_states=n - 1)
            assert str(exc.value) == (f"relation route passed the state budget of "
                                      f"{n - 1} flat states")


def _step_counter(monkeypatch) -> list[int]:
    """A one-item list counting the calls of ``_Rules.step`` from now on."""
    steps = [0]
    step = adapt._Rules.step

    def counted(rules, code):
        steps[0] += 1
        return step(rules, code)

    monkeypatch.setattr(adapt._Rules, "step", counted)
    return steps


def _relation_population():
    makers = [functools.partial(models.load, name) for name in models.NAMES]
    makers += [functools.partial(gen_random, seed, *acceptance_schedule(seed))
               for seed in range(500)]
    makers += [functools.partial(corridor_system, n) for n in (1, 2, 3)]
    makers += [functools.partial(rules_system, seed) for seed in range(50)]
    for n in (1, 2, 5, 17):
        makers += [functools.partial(maker, n)
                   for maker in (fan_system, spread_fan_system, ladder_system)]
    return makers


def test_a_system_is_explored_once_for_all_relation_queries(monkeypatch):
    steps = _step_counter(monkeypatch)
    for make in _relation_population():
        sys_ = make()
        n_flat = build_flat(sys_).n_states
        steps[0] = 0
        weak_relation(sys_)
        alone = steps[0]
        steps[0] = 0
        strong_relation(make())
        assert steps[0] <= n_flat, sys_.name  # what it stepped before the memo
        for order in (1, -1):
            fresh = make()
            runs = _relation_runs(fresh)[::order]
            steps[0] = 0
            for run in runs:
                run(fresh)
            assert steps[0] == alone, (sys_.name, order)
            for run in runs:
                run(fresh)
            assert steps[0] == alone, (sys_.name, order)
        # a budgeted query neither reads nor fills the memo
        fresh = make()
        steps[0] = 0
        weak_relation(fresh, max_states=alone)
        assert steps[0] == alone and fresh not in adapt._relations, sys_.name


def test_memoised_relations_equal_fresh_ones():
    for make in _relation_population():
        runs = _relation_runs(make())
        fresh = [run(make()) for run in runs]
        for order in (1, -1):
            sys_ = make()
            got = [run(sys_) for run in runs[::order]][::order]
            assert got == fresh, (sys_.name, order)


def test_a_related_system_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()  # from here on only reference counts free anything
    try:
        held = len(adapt._relations)
        sys_ = models.load("bone_s1")
        for run in _relation_runs(sys_):
            run(sys_)
        assert len(adapt._relations) == held + 1
        assert adapt._relations[sys_].index is not None  # the grid index, kept
        ref = weakref.ref(sys_)
        del sys_
        assert ref() is None
        assert len(adapt._relations) == held
    finally:
        gc.enable()
