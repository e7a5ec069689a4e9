import random

from sbcheck.cli import gen_random
from sbcheck.constraints import parse_formula
from sbcheck.flatten import FlatState, build_flat
from sbcheck.kripke import to_dot, to_kripke


def idx(k, q, r, ph=None):
    return k.states.index(FlatState(q, r, ph))


def test_dead_state_gets_plain_self_loop(bone_s1, kripkes):
    k = kripkes["bone_s1"]
    ph = (parse_formula("Ob>0 && Oy==0", bone_s1.sig), "r5")
    t = idx(k, "0_1_0", "r4", ph)
    assert k.succ[t] == (t,)
    assert k.labels[t] == frozenset()
    assert t in k.self_looped


def test_purely_steady_state_labels(kripkes):
    k = kripkes["atv_s0"]
    t = idx(k, "0", "r0")
    assert k.labels[t] == {"steady", "progress"}


def test_border_state_labels(kripkes):
    k = kripkes["atv_s0"]
    t = idx(k, "3", "r0")
    assert k.labels[t] == {"adapting", "steady", "progress"}


def test_mid_phase_state_labels(atv_s1, kripkes):
    k = kripkes["atv_s1"]
    ph = (parse_formula("v==V0 || v==V1", atv_s1.sig), "r0")
    t = idx(k, "11", "r0", ph)
    assert k.labels[t] == {"adapting", "progress"}


def test_initial_label_of_atv(kripkes):
    k = kripkes["atv_s0"]
    assert k.labels[k.initial] == {"steady", "progress"}


def _invariants(k):
    for t in range(k.n_states):
        assert k.succ[t], "left-totality"
        labs = k.labels[t]
        no_progress = "progress" not in labs
        assert no_progress == (t in k.self_looped)
        if "steady" in labs or "adapting" in labs:
            assert "progress" in labs


def test_label_invariants_on_bundled(kripkes, flats):
    for name, k in kripkes.items():
        _invariants(k)
        flat = flats[name]
        assert k.n_states == flat.n_states
        dedup_flat_edges = {(flat.index[a], flat.index[b])
                            for a, _, b in flat.transitions}
        assert k.n_edges == len(dedup_flat_edges) + len(k.self_looped)


def test_label_invariants_on_random_systems():
    rng = random.Random(11)
    for _ in range(100):
        sys_ = gen_random(rng.randrange(10**6), rng.randint(1, 10),
                          rng.randint(1, 4), rng.uniform(0.05, 1.0))
        _invariants(to_kripke(build_flat(sys_)))


def test_dot_export_mentions_labels(kripkes):
    dot = to_dot(kripkes["bone_s0"])
    assert "digraph" in dot and "steady" in dot and "adapting" in dot
