import json
import random

import pytest
from helpers import (
    acceptance_schedule,
    corridor_system,
    oracle_flat,
    oracle_flat_size,
    oracle_grid,
    prop1_violations,
    rules_system,
    single_loop_system,
    steady_pairs,
)

from sbcheck.adapt import _Analysis
from sbcheck.cli import gen_random
from sbcheck.constraints import parse_formula, pretty
from sbcheck.flatten import (
    FlatState,
    _Rules,
    build_flat,
    flat_successors,
    to_dot,
    to_json,
)
from sbcheck.kripke import to_dot as kripke_dot
from sbcheck.kripke import to_kripke
from sbcheck.model import StateBudgetError

ATV_S0_STEADY = {("0", "r0"), ("1", "r0"), ("2", "r0"), ("3", "r0"),
                 ("11", "r1"), ("10", "r1"), ("13", "r1")}
BONE_S0_STEADY = {("0_0_1", "r0"), ("0_0_2", "r0"), ("2_0_0", "r1"),
                  ("1_0_0", "r1"), ("0_1_0", "r2")}


def phase(sys_, text, target):
    """The name of the phase of invariant ``text`` toward ``target``."""
    return (pretty(parse_formula(text, sys_.sig)), target)


def test_steady_step_in_resorption(bone_s0):
    got = flat_successors(bone_s0, FlatState("2_0_0", "r1", None))
    assert got == [(None, FlatState("1_0_0", "r1", None))]


def test_phase_ends_as_soon_as_possible(bone_s0):
    ph = phase(bone_s0, "Ob>0 && Oy==0", "r2")
    got = flat_successors(bone_s0, FlatState("1_1_0", "r1", ph))
    # the move to 1_2_0 would satisfy the invariant, but an end is available
    assert got == [(ph, FlatState("0_1_0", "r2", None))]


def test_deadlocked_adapting_state(bone_s1):
    ph = phase(bone_s1, "Ob>0 && Oy==0", "r5")
    assert flat_successors(bone_s1, FlatState("0_1_0", "r4", ph)) == []


def test_adaptation_start_in_atv(atv_s0):
    got = flat_successors(atv_s0, FlatState("3", "r0", None))
    ph = phase(atv_s0, "v==V0 || v==V1", "r1")
    assert got == [(ph, FlatState("8", "r0", ph))]


def test_atv_s0_steady_projection(flats):
    assert steady_pairs(flats["atv_s0"]) == ATV_S0_STEADY


def test_bone_s0_steady_projection(flats):
    assert steady_pairs(flats["bone_s0"]) == BONE_S0_STEADY


def test_single_self_loop_system():
    flat = build_flat(single_loop_system())
    assert flat.n_states == 1
    assert [(flat.state(i), lab, flat.state(j)) for i, lab, j in flat.edges()] == [
        (flat.initial, None, flat.initial)]


def test_progress_examples(atv_s0, bone_s0):
    # adaptation can start
    assert bool(flat_successors(atv_s0, FlatState("3", "r0"))) is True
    # start toward r0 via 0_0_0
    assert bool(flat_successors(bone_s0, FlatState("0_1_0", "r2"))) is True
    # a behaviour-deadlocked state cannot progress anywhere
    from sbcheck.constraints import BoundedInt, Signature
    from sbcheck.model import BLevel, BState, SBSystem, SLevel
    sig = Signature([("x", BoundedInt(0, 1))])
    b = BLevel([BState("q", {"x": 0})], "q", [])
    s = SLevel([("r0", parse_formula("x == 0", sig))], "r0", [])
    dead = SBSystem("dead", sig, b, s)
    assert bool(flat_successors(dead, FlatState("q", "r0"))) is False


def test_unsatisfied_steady_state_has_no_successors(atv_s0):
    # state 8 carries c=1, violating the label of r0
    assert flat_successors(atv_s0, FlatState("8", "r0", None)) == []


def test_seeded_build_materialises_unreachable_pairs(bone_s0):
    flat = build_flat(bone_s0, root=("0_2_0", "r2"))
    assert flat.initial == FlatState("0_2_0", "r2", None)
    assert FlatState("0_2_0", "r2", None) in flat.states
    with pytest.raises(ValueError):
        build_flat(bone_s0, root=("nope", "r2"))


def test_build_rejects_a_root_violating_its_constraints(atv_s0):
    # state 8 carries c=1, violating the label of r0
    with pytest.raises(ValueError, match="^behaviour state '8' does not satisfy "
                                         "the constraints of 'r0'$"):
        build_flat(atv_s0, root=("8", "r0"))


def test_build_is_deterministic(bone_s1):
    a = build_flat(bone_s1)
    b = build_flat(bone_s1)
    assert a.states == b.states
    assert list(a.edges()) == list(b.edges())


def test_prop1_suite_on_bundled(bundled, flats):
    for name, flat in flats.items():
        assert prop1_violations(bundled[name], flat) == [], name


def test_prop1_suite_on_random_systems():
    rng = random.Random(4242)
    for _ in range(150):
        sys_ = gen_random(rng.randrange(10**6), rng.randint(1, 10),
                          rng.randint(1, 4), rng.uniform(0.05, 1.0))
        flat = build_flat(sys_)
        assert prop1_violations(sys_, flat) == []


def test_flat_size_matches_oracle(bundled, flats):
    for name, flat in flats.items():
        n, m = oracle_flat_size(bundled[name])
        assert (flat.n_states, flat.n_transitions) == (n, m), name


def test_flat_size_matches_oracle_on_random_systems():
    rng = random.Random(77)
    for _ in range(60):
        sys_ = gen_random(rng.randrange(10**6), rng.randint(1, 10),
                          rng.randint(1, 4), rng.uniform(0.05, 1.0))
        flat = build_flat(sys_)
        assert (flat.n_states, flat.n_transitions) == oracle_flat_size(sys_)


def test_dot_export(flats):
    flat = flats["atv_s0"]
    dot = to_dot(flat)
    assert dot.startswith("digraph") and dot.count("->") == flat.n_transitions
    # steady states are filled, adapting states hollow
    assert dot.count("style=filled") == sum(1 for f in flat.states if f.is_steady)
    assert dot.count("style=solid") == sum(1 for f in flat.states if not f.is_steady)


def test_json_export_round_trips(flats):
    doc = json.loads(to_json(flats["bone_s1"]))
    flat = flats["bone_s1"]
    assert doc["system"] == "bone_s1"
    assert len(doc["states"]) == flat.n_states
    assert len(doc["transitions"]) == flat.n_transitions
    assert doc["states"][doc["initial"]]["q"] == "0_0_1"
    # key order is part of the interface
    assert list(doc) == ["system", "initial", "states", "transitions"]
    assert list(doc["states"][0]) == ["q", "r", "phase"]
    # the document carries the whole structure
    def from_json(entry):
        if entry["phase"] is None:
            return (entry["q"], entry["r"], None)
        return (entry["q"], entry["r"],
                (entry["phase"]["inv"], entry["phase"]["target"]))

    def from_state(f):
        return (f.q, f.r, f.phase)

    states = [from_json(e) for e in doc["states"]]
    assert states == [from_state(f) for f in flat.states]
    edges = {(states[t["from"]], states[t["to"]]) for t in doc["transitions"]}
    assert edges == {(from_state(flat.state(i)), from_state(flat.state(j)))
                     for i, _, j in flat.edges()}


# ---------------------------------------------------------------------------
# build_flat and to_kripke against the plain-set oracle


def _state_key(f):
    if f.phase is None:
        return (f.q, f.r, "", "")
    return (f.q, f.r, f.phase[1], f.phase[0])


def _label_key(lab):
    if lab is None:
        return (0, "", "")
    return (1, lab[1], lab[0])


def _oracle_label(src, lab):
    if lab is None:
        return ("steady", src.r)
    return ("adapt", src.r, *lab)


def assert_flat_matches_oracle(sys_, root=None):
    flat = build_flat(sys_, root=root)
    states, edges = oracle_flat(sys_, root)
    got = [(f.q, f.r, f.phase) for f in flat.states]
    assert len(got) == len(states) and set(got) == states
    transitions = [(flat.state(i), lab, flat.state(j)) for i, lab, j in flat.edges()]
    got_edges = [((a.q, a.r, a.phase), _oracle_label(a, lab), (b.q, b.r, b.phase))
                 for a, lab, b in transitions]
    assert len(got_edges) == len(edges) and set(got_edges) == edges
    assert flat.initial == FlatState(*(root or (sys_.b.initial, sys_.s.initial)))
    assert flat.state(flat.initial_index) == flat.initial
    # canonical order: states ascending, each state's transitions ascending
    keys = [_state_key(f) for f in flat.states]
    assert keys == sorted(set(keys))
    out = [[] for _ in flat.states]
    for a, lab, b in transitions:
        out[flat.states.index(a)].append((lab, b))
    for f, succ in zip(flat.states, out):
        assert succ == flat_successors(sys_, f)
        order = [(_label_key(lab), _state_key(g)) for lab, g in succ]
        assert order == sorted(set(order))
    assert transitions == [(f, lab, g) for f, succ in zip(flat.states, out)
                           for lab, g in succ]

    # the Kripke structure is what the flat transitions imply
    k = to_kripke(flat)
    succ = [set() for _ in flat.states]
    atoms = {"adapting": set(), "steady": set(), "progress": set()}
    for i, lab, j in flat.edges():
        succ[i].add(j)
        atoms["progress"].add(i)
        if flat.state(i).is_steady:
            atoms["steady"].add(i)
        if lab is not None:
            atoms["adapting"].add(i)
    dead = {i for i, ts in enumerate(succ) if not ts}
    assert k.succ == [tuple(sorted(ts or {i})) for i, ts in enumerate(succ)]
    assert k.atoms == atoms
    # the rendering dashes exactly the self-loops added at dead states
    dashed = [line for line in kripke_dot(flat, k).splitlines() if "dashed" in line]
    assert dashed == [f"  n{i} -> n{i} [style=dashed];" for i in sorted(dead)]
    assert k.n_states == flat.n_states and k.initial == flat.initial_index
    assert k.n_edges == sum(len(ts) for ts in k.succ)


def test_build_matches_oracle_on_acceptance_population():
    for seed in range(500):
        assert_flat_matches_oracle(gen_random(seed, *acceptance_schedule(seed)))


def test_build_matches_oracle_on_guarded_rule_models():
    for seed in range(50):
        assert_flat_matches_oracle(rules_system(seed))


def test_build_matches_oracle_on_bundled(bundled):
    for sys_ in bundled.values():
        assert_flat_matches_oracle(sys_)


def test_build_matches_oracle_at_every_grid_root():
    systems = [gen_random(seed, *acceptance_schedule(seed)) for seed in range(50)]
    systems += [rules_system(seed) for seed in range(50)]
    for sys_ in systems:
        for q in sys_.b.states:
            for r in sys_.s.states:
                if sys_.sat(q, sys_.s.label(r)):
                    assert_flat_matches_oracle(sys_, root=(q, r))


def test_flat_build_stops_past_its_state_budget(bundled):
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(100)]
    systems += [corridor_system(n) for n in (1, 2)]
    systems += [rules_system(seed) for seed in range(10)]
    for sys_ in systems:
        full = build_flat(sys_)
        n = full.n_states
        kept = build_flat(sys_, max_states=n)
        assert (kept.codes, kept.targets) == (full.codes, full.targets)
        with pytest.raises(StateBudgetError) as exc:
            build_flat(sys_, max_states=n - 1)
        assert str(exc.value) == f"build_flat passed the state budget of {n - 1} flat states"


def test_the_rules_count_each_code_build_flat_steps(bundled):
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(100)]
    systems += [corridor_system(n) for n in (1, 2)]
    for sys_ in systems:
        for root in (None, *oracle_grid(sys_)[:3]):
            flat = build_flat(sys_, root=root)
            assert flat._rules.stepped == flat.n_states, (sys_.name, root)


# ---------------------------------------------------------------------------
# The one flat-code layout


def test_one_codec_for_states_pairs_and_labels(bundled):
    systems = list(bundled.values())
    systems += [gen_random(seed, *acceptance_schedule(seed)) for seed in range(100)]
    systems += [corridor_system(n) for n in (1, 2)]
    for sys_ in systems:
        rules = _Rules(sys_)
        P = len(sys_.s.phases)
        flat = build_flat(sys_)
        for c in flat.codes:
            f = rules.decode(c)
            assert rules.encode(f) == c
            assert rules.pair(c) == (f.q, f.r)
            assert rules.steady(f.q, f.r) == c - c % P
            assert (c % P == 0) == f.is_steady
        assert [rules.pair(c) for c in _Analysis(sys_).grid()] == oracle_grid(sys_)
        phase_ids = set(map(id, sys_.s.phases))
        for _, lab, _ in flat.edges():
            assert lab is None or id(lab) in phase_ids, sys_.name
