"""Acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Expected total runtime: well under a minute.
"""

import functools
import gc
import random
import statistics
import time

import pytest
from helpers import (
    acceptance_schedule,
    corridor_system,
    fan_system,
    flat_out,
    ladder_system,
    oracle_sat,
    prop1_violations,
    random_ctl,
    random_kripke,
    steady_pairs,
)

from sbcheck.adapt import (
    STRONG_FORMULA,
    WEAK_FORMULA,
    WEAK_INNER,
    AdaptRelation,
    check_strong,
    check_weak,
    greatest_strong_relation,
    is_strong_adaptation,
    is_weak_adaptation,
    strong_relation,
    weak_relation,
)
from sbcheck.cli import gen_random
from sbcheck.ctl import eg, sat_set, witness_eg
from sbcheck.flatten import FlatState, build_flat
from sbcheck.kripke import to_kripke
from sbcheck.model import SBSystem

N_RANDOM_SYSTEMS = 500
N_RANDOM_KRIPKES = 200


def _report(criterion, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {criterion} [{description}]: FAIL")
                raise
            print(f"ACCEPTANCE {criterion} [{description}]: PASS")
        return inner
    return wrap


@pytest.fixture(scope="module")
def generated():
    """The fixed population of random systems shared by criteria 4-6, with
    their flat systems."""
    out = []
    for seed in range(N_RANDOM_SYSTEMS):
        n_b, n_s, density = acceptance_schedule(seed)
        sys_ = gen_random(seed, n_b, n_s, density)
        out.append((sys_, build_flat(sys_)))
    return out


@_report(1, "verdict table")
def test_criterion_1_verdict_table(bundled):
    expected = {"atv_s0": (True, True), "atv_s1": (True, False),
                "bone_s0": (True, True), "bone_s1": (True, False)}
    for name, sys_ in bundled.items():
        got = (check_weak(sys_).holds, check_strong(sys_).holds)
        assert got == expected[name], f"{name}: {got}"


@_report(2, "relation reproduction")
def test_criterion_2_relations(atv_s0, atv_s1, bone_s0, bone_s1):
    assert strong_relation(atv_s0).pairs == frozenset({
        ("0", "r0"), ("1", "r0"), ("2", "r0"), ("3", "r0"),
        ("11", "r1"), ("10", "r1"), ("13", "r1")})
    assert strong_relation(bone_s0).pairs == frozenset({
        ("0_0_1", "r0"), ("0_0_2", "r0"), ("2_0_0", "r1"),
        ("1_0_0", "r1"), ("0_1_0", "r2")})
    assert {("0", "r0"), ("1", "r0"), ("2", "r0"), ("3", "r0")} \
        <= weak_relation(atv_s1).pairs
    assert {("0_0_1", "r0"), ("0_0_2", "r0"), ("2_0_0", "r1"), ("1_0_0", "r1"),
            ("0_1_0", "r2"), ("0_0_2", "r3"), ("2_0_0", "r4"), ("0_4_0", "r5"),
            ("0_3_0", "r5"), ("0_2_0", "r2")} <= weak_relation(bone_s1).pairs


@_report(3, "deadlock witness")
def test_criterion_3_deadlock_witness(bone_s1):
    flat = build_flat(bone_s1)
    dead = FlatState("0_1_0", "r4", ("Ob > 0 && Oy == 0", "r5"))
    assert dead in flat.states
    assert flat_out(flat, dead) == []
    verdict = check_strong(bone_s1)
    assert not verdict.holds
    cycle = verdict.evidence.cycle
    assert cycle, "counterexample must end in a lasso"
    ends_at_deadlock = cycle == (dead,)
    inside_adapting_cycle = all(not f.is_steady for f in cycle)
    assert ends_at_deadlock or inside_adapting_cycle


@_report(4, "theorem equivalence, relational vs logical")
def test_criterion_4_theorem_equivalence(bundled, generated):
    checked = 0
    population = [(s, build_flat(s)) for s in bundled.values()]
    population += list(generated)
    for sys_, flat in population:
        k = to_kripke(flat)
        sat_w = sat_set(k, WEAK_FORMULA)
        sat_s = sat_set(k, STRONG_FORMULA)
        rel_w = weak_relation(sys_)
        rel_s = greatest_strong_relation(sys_)
        assert (strong_relation(sys_) is not None) == (k.initial in sat_s)
        assert ((sys_.b.initial, sys_.s.initial) in rel_w) == (k.initial in sat_w)
        for i, f in enumerate(flat.states):
            if not f.is_steady:
                continue
            assert sys_.sat(f.q, sys_.s.label(f.r))
            assert ((f.q, f.r) in rel_w) == (i in sat_w), f"weak at {f}"
            assert ((f.q, f.r) in rel_s) == (i in sat_s), f"strong at {f}"
            checked += 1
    assert checked > 1000


@_report(5, "flat-semantics invariant suite")
def test_criterion_5_flat_invariants(bundled, flats, generated):
    for name, flat in flats.items():
        assert prop1_violations(bundled[name], flat) == [], name
    for sys_, flat in generated:
        assert prop1_violations(sys_, flat) == [], sys_.name


@_report(6, "relation algebra suite")
def test_criterion_6_relation_algebra(generated):
    rng = random.Random(2024)
    for sys_, _flat in generated:
        rel_w = weak_relation(sys_)
        rel_s = greatest_strong_relation(sys_)
        # strong implies weak
        assert rel_s.pairs <= rel_w.pairs, sys_.name
        sr = strong_relation(sys_)
        if sr is not None:
            assert sr.pairs <= rel_w.pairs, sys_.name
            # propagation: reachable steady pairs all strong-related
            assert steady_pairs(build_flat(sys_)) <= rel_s.pairs, sys_.name
        # computed relations pass their own checkers
        assert is_weak_adaptation(sys_, rel_w).ok, sys_.name
        assert is_strong_adaptation(sys_, rel_s).ok, sys_.name
    # union closure, spot-checked on a sample with non-trivial relations
    sampled = 0
    for sys_, _flat in generated:
        rel_w = weak_relation(sys_)
        if len(rel_w) < 2:
            continue
        pairs = sorted(rel_w.pairs)
        rng.shuffle(pairs)
        half1 = _shrink(sys_, rel_w, is_weak_adaptation, pairs[::2])
        half2 = _shrink(sys_, rel_w, is_weak_adaptation, pairs[1::2])
        assert is_weak_adaptation(
            sys_, AdaptRelation(half1.pairs | half2.pairs)).ok, sys_.name
        sampled += 1
        if sampled >= 60:
            break
    assert sampled >= 30


def _shrink(sys_, base, checker, removal_order):
    pairs = set(base.pairs)
    for p in removal_order:
        trial = AdaptRelation(frozenset(pairs - {p}))
        if checker(sys_, trial).ok:
            pairs.discard(p)
    return AdaptRelation(frozenset(pairs))


@_report(7, "model checker vs path-enumeration oracle")
def test_criterion_7_ctl_oracle():
    rng = random.Random(1717)
    for _ in range(N_RANDOM_KRIPKES):
        k = random_kripke(rng, rng.randint(1, 12))
        phi = random_ctl(rng, rng.randint(1, 5))
        assert sat_set(k, phi) == oracle_sat(k, phi)


@_report(8, "checking time linear in structure size")
def test_criterion_8_complexity(corridors):
    sizes = (250, 500, 1000)  # blocks; 100 behaviour states per block
    kripkes = [to_kripke(build_flat(corridors[blocks])) for blocks in sizes]
    dims = [k.n_states + k.n_edges for k in kripkes]
    gc.collect()
    gc.freeze()
    try:
        times = _median_of_5_alternating(_timed_check, kripkes)
    finally:
        gc.unfreeze()
    assert 100 * sizes[-1] == 100_000  # flat states at the largest size
    assert dims[-1] >= 500_000, f"structure too small: n+m={dims[-1]}"
    assert times[-1] <= 10.0, f"checking took {times[-1]:.2f}s"
    assert 1.9 < dims[1] / dims[0] < 2.1 and 1.9 < dims[2] / dims[1] < 2.1
    assert times[1] <= 3 * max(times[0], 1e-3), (times, dims)
    assert times[2] <= 3 * max(times[1], 1e-3), (times, dims)


def _timed_check(k):
    start = time.perf_counter()
    sat_set(k, WEAK_FORMULA)
    sat_set(k, STRONG_FORMULA)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def corridors():
    """The corridor systems timed by criteria 8, 9 and 11, by number of blocks."""
    return {blocks: corridor_system(blocks) for blocks in (250, 500, 1000)}


@_report(9, "build, Kripke construction and checking linear in structure size")
def test_criterion_9_end_to_end_complexity(corridors):
    sizes = (250, 500, 1000)  # blocks; 100 behaviour states per block
    gc.collect()
    gc.freeze()
    try:
        times = _median_of_5_alternating(_timed_build_and_check,
                                         [corridors[blocks] for blocks in sizes])
    finally:
        gc.unfreeze()
    assert times[-1] <= 10.0, f"build and check took {times[-1]:.2f}s"
    assert times[1] <= 3 * max(times[0], 1e-3), times
    assert times[2] <= 3 * max(times[1], 1e-3), times


def _fresh(sys_):
    """A new system over the same levels, whose satisfaction table is empty."""
    return SBSystem(sys_.name, sys_.sig, sys_.b, sys_.s)


def _timed_build_and_check(sys_):
    sys_ = _fresh(sys_)
    start = time.perf_counter()
    k = to_kripke(build_flat(sys_))
    sat_set(k, WEAK_FORMULA)
    sat_set(k, STRONG_FORMULA)
    return time.perf_counter() - start


@_report(10, "relation routes linear in the size of shared adaptation phases")
def test_criterion_10_relation_route_scaling():
    # fan: n entering pairs share one n-state adaptation phase, which a
    # per-pair exploration walks n times; ladder: one phase of n endpoints,
    # each reachable from a suffix of the rungs, which per-state endpoint
    # sets would copy n times
    fans = [fan_system(n) for n in (250, 500, 1000)]
    ladders = [ladder_system(n) for n in (1000, 2000, 4000)]
    # the objects alive so far, the rest of the suite's included, are left
    # out of the garbage collections made while timing
    gc.collect()
    gc.freeze()
    try:
        fan = _median_of_5_alternating(_timed_relations, fans)
        ladder = _median_of_5_alternating(_timed_relations, ladders)
    finally:
        gc.unfreeze()
    assert fan[-1] <= 2.0, f"fan relations took {fan[-1]:.2f}s"
    for times in (fan, ladder):
        assert times[1] <= 3 * max(times[0], 1e-3), (fan, ladder)
        assert times[2] <= 3 * max(times[1], 1e-3), (fan, ladder)


def _median_of_5_alternating(timed, inputs):
    """The median of five timings of ``timed`` on each input.

    The rounds cycle through all the inputs, forward and backward in turn,
    so that each input is timed as often early as late in a round.  The
    median, unlike the best, gives a small input no more chance than a
    large one to fall between the host's slow periods.
    """
    order = list(range(len(inputs)))
    runs = [[0.0] * len(inputs) for _ in range(5)]
    for k, run in enumerate(runs):
        for i in order if k % 2 == 0 else order[::-1]:
            run[i] = timed(inputs[i])
    return [statistics.median(column) for column in zip(*runs)]


def _timed_relations(sys_):
    sys_ = _fresh(sys_)  # an empty relation memo, so each run explores
    start = time.perf_counter()
    weak_relation(sys_)
    greatest_strong_relation(sys_)
    return time.perf_counter() - start


@_report(11, "witness extraction costs no more than the flat build")
def test_criterion_11_witness_within_build_cost(corridors):
    # the witness cycle goes once around the ring, so closing it searches
    # the whole structure
    sys_ = corridors[1000]
    k = to_kripke(build_flat(sys_))
    gc.collect()
    gc.freeze()
    try:
        runs = [(_timed_build(sys_), _timed_witness(k)) for _ in range(3)]
    finally:
        gc.unfreeze()
    build, witness = map(min, zip(*runs))
    assert witness <= build, f"witness {witness:.2f}s, flat build {build:.2f}s"


def _timed_build(sys_):
    sys_ = _fresh(sys_)
    start = time.perf_counter()
    build_flat(sys_)
    return time.perf_counter() - start


def _timed_witness(k):
    start = time.perf_counter()
    witness_eg(k, sat_set(k, eg(WEAK_INNER)), k.initial)
    return time.perf_counter() - start
