"""The graph kernel against brute force on seeded random graphs."""

import random

import pytest

from sbcheck.graph import attractor, cyclic_states, reach, shortest_path


def random_graph(rng: random.Random):
    n = rng.randint(1, 12)
    succ = [tuple(rng.sample(range(n), rng.randint(0, min(n, 3)))) for _ in range(n)]
    region = {v for v in range(n) if rng.random() < 0.7}
    return n, succ, region


def closure(succ, sources, within):
    """Everything reachable from ``sources`` in zero or more steps inside ``within``."""
    out = set(sources)
    while True:
        more = {y for x in out for y in succ[x] if y in within} - out
        if not more:
            return out
        out |= more


def distances(succ, start, within):
    """Steps from ``start`` to each node it reaches inside ``within``."""
    dist, level, d = {start: 0}, {start}, 0
    while level:
        d += 1
        level = {y for x in level for y in succ[x] if y in within} - dist.keys()
        dist.update(dict.fromkeys(level, d))
    return dist


SEEDS = range(400)


@pytest.mark.parametrize("restricted", [False, True])
def test_reach_matches_closure(restricted):
    for seed in SEEDS:
        rng = random.Random(seed)
        n, succ, region = random_graph(rng)
        sources = rng.sample(range(n), rng.randint(0, n))
        within = region if restricted else set(range(n))
        got = reach(succ.__getitem__, sources, within=within if restricted else None)
        assert got == closure(succ, sources, within), seed


def naive_attractor(succ, count, sources, within):
    """The least set holding ``sources`` and each node ``x`` of ``within``
    with ``count[x] >= 1`` and at least ``count[x]`` successors in it."""
    out = set(sources)
    while True:
        more = {x for x in within - out
                if count[x] >= 1 and sum(y in out for y in succ[x]) >= count[x]}
        if not more:
            return out
        out |= more


def predecessors(succ):
    """``pred(v)`` of the graph ``succ``: each predecessor once per edge."""
    pred = [[] for _ in succ]
    for x, ys in enumerate(succ):
        for y in ys:
            pred[y].append(x)
    return pred.__getitem__


@pytest.mark.parametrize("restricted", [False, True])
def test_attractor_matches_naive_fixpoint(restricted):
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        succ = [rng.sample(range(n), rng.randint(0, min(n, 4))) for _ in range(n)]
        count = [rng.randint(0, len(ys)) for ys in succ]
        within = {v for v in range(n) if rng.random() < 0.7} if restricted else set(range(n))
        sources = rng.sample(range(n), rng.randint(0, min(n, 4)))
        expected = naive_attractor(succ, count, sources, within)
        # the counts are the caller's, a list over dense nodes or a dict
        for remaining in (list(count), dict(enumerate(count))):
            got = attractor(predecessors(succ), remaining, sources,
                            within=within if restricted else None)
            assert got == expected, seed


def test_attractor_with_a_zero_count_joins_only_as_a_source():
    # 0 -> 1 and 0 -> 2; 2 is the source
    succ = [(1, 2), (), ()]
    assert attractor(predecessors(succ), [0, 0, 0], [2]) == {2}
    assert attractor(predecessors(succ), [1, 0, 0], [2]) == {0, 2}
    assert attractor(predecessors(succ), [2, 0, 0], [2]) == {2}
    assert attractor(predecessors(succ), [0, 0, 0], [0, 2]) == {0, 2}
    # a node outside ``within`` joins only as a source too
    assert attractor(predecessors(succ), [1, 0, 0], [2], within={1, 2}) == {2}


def test_cyclic_states_are_the_states_that_return_to_themselves():
    for seed in SEEDS:
        rng = random.Random(seed)
        n, succ, region = random_graph(rng)
        for r in (region, set(range(n))):
            expected = {v for v in r
                        if v in closure(succ, [y for y in succ[v] if y in r], r)}
            assert cyclic_states(succ.__getitem__, r) == expected, seed


def test_self_loop_is_a_cycle_and_a_dead_end_is_not():
    succ = [(0,), (2,), ()]
    assert cyclic_states(succ.__getitem__, {0, 1, 2}) == {0}
    # the loop 1 -> 2 -> 1 is cut when 2 leaves the region
    loop = [(1,), (2,), (1,)]
    assert cyclic_states(loop.__getitem__, {0, 1, 2}) == {1, 2}
    assert cyclic_states(loop.__getitem__, {0, 1}) == set()


@pytest.mark.parametrize("restricted", [False, True])
def test_shortest_path_is_shortest_with_lowest_index_ties(restricted):
    for seed in SEEDS:
        rng = random.Random(seed)
        n, succ, region = random_graph(rng)
        within = region if restricted else set(range(n))
        start = rng.randrange(n)
        goal = set(rng.sample(range(n), rng.randint(0, min(n, 3))))
        path = shortest_path(succ.__getitem__, start, goal,
                             within=within if restricted else None)
        if start not in within:
            assert path is None, seed
            continue
        dist = distances(succ, start, within)
        near = [g for g in goal if g in dist]
        if not near:
            assert path is None, seed
            continue
        best = min(dist[g] for g in near)
        assert path[0] == start and len(path) == best + 1, seed
        assert path[-1] == min(g for g in near if dist[g] == best), seed
        for i in range(1, len(path)):
            assert path[i] in within, seed
            preds = [t for t, d in dist.items() if d == i - 1 and path[i] in succ[t]]
            assert path[i - 1] == min(preds), seed


def test_shortest_path_tie_break_examples():
    # two equally short routes to 3: the one through the lower state wins,
    # whatever order the successors are listed in
    succ = [(2, 1), (3,), (3,), ()]
    assert shortest_path(succ.__getitem__, 0, {3}) == [0, 1, 3]
    # two equally near goals: the lower one is reached
    succ = [(5, 4), (), (), (), (), ()]
    assert shortest_path(succ.__getitem__, 0, {4, 5}) == [0, 4]
    # the start counts as a goal, and a region can make the goal unreachable
    assert shortest_path(succ.__getitem__, 0, {0, 4}) == [0]
    assert shortest_path(succ.__getitem__, 0, {4}, within={0, 5}) is None
