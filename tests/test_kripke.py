import random

from sbcheck.cli import gen_random
from sbcheck.flatten import FlatState, build_flat
from sbcheck.kripke import to_dot, to_kripke


def idx(flat, q, r, ph=None):
    return flat.states.index(FlatState(q, r, ph))


def flat_dead(flat):
    """The indices of the states no flat transition leaves."""
    return set(range(flat.n_states)) - {i for i, _, _ in flat.edges()}


def test_dead_state_gets_plain_self_loop(bone_s1, flats, kripkes):
    k = kripkes["bone_s1"]
    ph = ("Ob > 0 && Oy == 0", "r5")
    t = idx(flats["bone_s1"], "0_1_0", "r4", ph)
    assert k.succ[t] == (t,)
    assert k.labels(t) == frozenset()
    assert t in flat_dead(flats["bone_s1"])


def test_purely_steady_state_labels(flats, kripkes):
    k = kripkes["atv_s0"]
    t = idx(flats["atv_s0"], "0", "r0")
    assert k.labels(t) == {"steady", "progress"}


def test_border_state_labels(flats, kripkes):
    k = kripkes["atv_s0"]
    t = idx(flats["atv_s0"], "3", "r0")
    assert k.labels(t) == {"adapting", "steady", "progress"}


def test_mid_phase_state_labels(atv_s1, flats, kripkes):
    k = kripkes["atv_s1"]
    ph = ("v == V0 || v == V1", "r0")
    t = idx(flats["atv_s1"], "11", "r0", ph)
    assert k.labels(t) == {"adapting", "progress"}


def test_initial_label_of_atv(kripkes):
    k = kripkes["atv_s0"]
    assert k.labels(k.initial) == {"steady", "progress"}


def _invariants(flat, k):
    dead = flat_dead(flat)
    for t in range(k.n_states):
        assert k.succ[t], "left-totality"
        labs = k.labels(t)
        no_progress = "progress" not in labs
        assert no_progress == (t in dead)
        if "steady" in labs or "adapting" in labs:
            assert "progress" in labs
        if "progress" in labs:  # a moving adapting state is labelled adapting
            assert "steady" in labs or "adapting" in labs


def test_label_invariants_on_bundled(kripkes, flats):
    for name, k in kripkes.items():
        flat = flats[name]
        _invariants(flat, k)
        assert k.n_states == flat.n_states
        dedup_flat_edges = {(a, b) for a, _, b in flat.edges()}
        assert k.n_edges == len(dedup_flat_edges) + len(flat_dead(flat))


def test_label_invariants_on_random_systems():
    rng = random.Random(11)
    for _ in range(100):
        sys_ = gen_random(rng.randrange(10**6), rng.randint(1, 10),
                          rng.randint(1, 4), rng.uniform(0.05, 1.0))
        flat = build_flat(sys_)
        _invariants(flat, to_kripke(flat))


def test_dot_export_mentions_labels(flats, kripkes):
    dot = to_dot(flats["bone_s0"], kripkes["bone_s0"])
    assert "digraph" in dot and "steady" in dot and "adapting" in dot


def test_dot_export_dashes_exactly_the_added_self_loops(flats, kripkes):
    flat = flats["bone_s1"]
    dead = flat_dead(flat)
    assert dead
    dashed = {line.strip() for line in to_dot(flat, kripkes["bone_s1"]).splitlines()
              if "style=dashed" in line}
    assert dashed == {f"n{i} -> n{i} [style=dashed];" for i in dead}
