"""Hand-built systems exercising corners the bundled models do not reach."""

import random

from helpers import flat_out, steady_pairs

from sbcheck.adapt import (
    check_strong,
    check_weak,
    greatest_strong_relation,
    state_adaptable,
    strong_relation,
    weak_relation,
)
from sbcheck.cli import gen_random
from sbcheck.constraints import BoundedInt, Signature, parse_formula, pretty
from sbcheck.flatten import FlatState, build_flat
from sbcheck.model import BLevel, BState, SBSystem, SLevel, STransition, parse_model, validate


def _sys(name, sig, states, initial, trans, s_states, s_init, s_trans):
    b = BLevel([BState(i, o) for i, o in states], initial, trans)
    s = SLevel([(r, parse_formula(t, sig)) for r, t in s_states], s_init,
               [STransition(a, parse_formula(inv, sig), c) for a, inv, c in s_trans])
    return SBSystem(name, sig, b, s)


def test_parallel_transitions_are_distinct_phases():
    sig = Signature([("x", BoundedInt(0, 5))])
    sys_ = _sys(
        "parallel", sig,
        [("q0", {"x": 0}), ("a", {"x": 2}), ("b", {"x": 3}), ("c", {"x": 1})],
        "q0",
        [("q0", "a"), ("a", "b"), ("b", "c"), ("c", "c")],
        [("r0", "x == 0"), ("r1", "x == 1")],
        "r0",
        [("r0", "x <= 2", "r1"), ("r0", "x >= 2", "r1")],
    )
    assert validate(sys_) == []
    assert len(sys_.s.transitions) == 2  # same pair, different invariants
    flat = build_flat(sys_)
    low = ("x <= 2", "r1")
    high = ("x >= 2", "r1")
    assert FlatState("a", "r0", low) in flat.states
    assert FlatState("a", "r0", high) in flat.states
    # the low-invariant phase dies at a; the high one completes at (c, r1)
    assert flat_out(flat, FlatState("a", "r0", low)) == []
    assert ("c", "r1") in {(f.q, f.r) for f in flat.states if f.is_steady}
    # one completing phase is enough for weak, the dead one kills strong
    assert check_weak(sys_).holds is True
    assert check_strong(sys_).holds is False
    assert ("q0", "r0") in weak_relation(sys_)
    assert strong_relation(sys_) is None
    assert ("q0", "r0") not in greatest_strong_relation(sys_)


def test_transitions_and_phases_are_told_apart_by_printed_invariant():
    sig = Signature([("x", BoundedInt(0, 5))])
    sys_ = _sys(
        "shared", sig,
        [("q0", {"x": 0}), ("a", {"x": 2})],
        "q0",
        [("q0", "a"), ("a", "a")],
        [("r0", "x == 0"), ("r1", "x == 1"), ("r2", "x >= 0")],
        "r0",
        [("r0", "x >= 2", "r1"), ("r0", "(x>=2)", "r1"), ("r2", "x >= 2", "r1"),
         ("r0", "x >= 2", "r2")],
    )
    # separately parsed equal invariants: one transition per pair, and one
    # phase per target
    assert [(tr.source, tr.target) for tr in sys_.s.transitions] \
        == [("r0", "r1"), ("r2", "r1"), ("r0", "r2")]
    assert sys_.s.phases[1:] == (("x >= 2", "r1"), ("x >= 2", "r2"))
    assert [pretty(inv) for inv in sys_.s.phase_inv[1:]] == ["x >= 2", "x >= 2"]
    assert sys_.s.phase_rank == {("x >= 2", "r1"): 1, ("x >= 2", "r2"): 2}
    flat = build_flat(sys_)
    assert FlatState("a", "r0", ("x >= 2", "r1")) in flat.states


def test_immediate_and_gradual_start_coexist():
    sig = Signature([("x", BoundedInt(0, 2))])
    sys_ = _sys(
        "mixed_start", sig,
        [("q0", {"x": 0}), ("d", {"x": 1}), ("g", {"x": 2})],
        "q0",
        [("q0", "d"), ("q0", "g"), ("g", "d"), ("d", "d")],
        [("r0", "x == 0"), ("r1", "x == 1")],
        "r0",
        [("r0", "true", "r1")],
    )
    assert validate(sys_) == []
    flat = build_flat(sys_)
    start = FlatState("q0", "r0", None)
    succs = flat_out(flat, start)
    assert len(succs) == 2
    # both are adaptation transitions, of the system's one phase
    assert all(lab is sys_.s.phases[1] for lab, _ in succs)
    targets = {g for _, g in succs}
    ph = ("true", "r1")
    assert targets == {FlatState("d", "r1", None),   # immediate completion
                       FlatState("g", "r0", ph)}     # phase entry
    assert check_strong(sys_).holds is True
    rel = strong_relation(sys_)
    assert rel is not None and rel.pairs == frozenset({("q0", "r0"), ("d", "r1")})


def test_bool_observables_end_to_end():
    text = """
system pingpong
observables
  ok : bool
behaviour explicit
  state p { ok=true }
  state q { ok=false }
  init p
  trans p -> q
  trans q -> p
structure
  state r0 : ok
  state r1 : !ok
  init r0
  trans r0 -> r1 inv true
  trans r1 -> r0 inv true
"""
    sys_ = parse_model(text)
    assert validate(sys_) == []
    flat = build_flat(sys_)
    # every move is an immediate adaptation between the two regions
    assert steady_pairs(flat) == {("p", "r0"), ("q", "r1")}
    assert flat.n_states == 2
    assert check_weak(sys_).holds and check_strong(sys_).holds
    rel = strong_relation(sys_)
    assert rel is not None and rel.pairs == frozenset({("p", "r0"), ("q", "r1")})
    assert weak_relation(sys_).pairs == rel.pairs


def test_structure_without_exits_dead_ends():
    sig = Signature([("x", BoundedInt(0, 1))])
    sys_ = _sys(
        "no_exit", sig,
        [("q0", {"x": 0}), ("q1", {"x": 1})],
        "q0",
        [("q0", "q1"), ("q1", "q1")],
        [("r0", "x == 0")],
        "r0",
        [],
    )
    assert validate(sys_) == []
    flat = build_flat(sys_)
    assert flat.n_states == 1 and flat.dead_states() == (flat.initial,)
    assert check_weak(sys_).holds is False
    assert check_strong(sys_).holds is False
    assert len(weak_relation(sys_)) == 0


def test_strong_per_state_agreement_across_the_grid():
    # the relational and seeded-logical routes must agree on every
    # satisfaction-grid pair, reachable from the initial state or not
    rng = random.Random(606)
    for _ in range(60):
        sys_ = gen_random(rng.randrange(10**6), rng.randint(1, 9),
                          rng.randint(1, 4), rng.uniform(0.05, 1.0))
        rel_s = greatest_strong_relation(sys_)
        for q in sys_.b.states:
            for r in sys_.s.states:
                if sys_.sat(q, sys_.s.label(r)):
                    assert state_adaptable(sys_, q, r, "strong") == \
                        ((q, r) in rel_s), (sys_.name, q, r)
