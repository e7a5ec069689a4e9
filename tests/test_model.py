import logging
import random

import pytest

from helpers import acceptance_schedule, rules_system

from sbcheck import model, models
from sbcheck.cli import gen_random, system_to_dsl
from sbcheck.constraints import BoundedInt, Signature, parse_formula, pretty, tokenize
from sbcheck.model import (
    BLevel,
    BState,
    ModelError,
    SBSystem,
    SLevel,
    StateBudgetError,
    STransition,
    expand_rules,
    parse_model,
    validate,
)

MINI = """
system mini
observables
  x : int 0..3
behaviour explicit
  state p { x=0 }
  state q { x=1 }
  init p
  trans p -> q
structure
  state r0 : x == 0
  state r1 : x == 1
  init r0
  trans r0 -> r1 inv true
"""


def bid(*values):
    return "_".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# DSL parsing


def test_bone_s0_shape(bone_s0):
    assert set(bone_s0.s.states) == {"r0", "r1", "r2"}
    assert len(bone_s0.s.transitions) == 3
    assert bone_s0.s.initial == "r0"


def test_atv_s1_shape(atv_s1):
    assert set(atv_s1.s.states) == {"r0"}
    assert len(atv_s1.s.transitions) == 1
    tr = atv_s1.s.transitions[0]
    assert (tr.source, tr.target) == ("r0", "r0")
    assert tr.inv == parse_formula("v==V0 || v==V1", atv_s1.sig)


def test_initial_state_violation_is_reported():
    bad = MINI.replace("init p", "init q")
    sys_ = parse_model(bad)
    problems = validate(sys_)
    assert any(d.code == "def3" for d in problems)


def test_parse_errors_have_locations():
    with pytest.raises(ModelError) as exc:
        parse_model(MINI.replace("state q { x=1 }", "state q { x=1"))
    assert exc.value.line is not None
    with pytest.raises(ModelError, match="duplicate"):
        parse_model(MINI.replace("state q { x=1 }",
                                 "state q { x=1 }\n  state q { x=2 }"))
    with pytest.raises(ModelError, match="dangling"):
        parse_model(MINI.replace("trans p -> q", "trans p -> nowhere"))
    with pytest.raises(ModelError, match="sort|integer|boolean"):
        parse_model(MINI.replace("state r0 : x == 0", "state r0 : x + 1"))
    with pytest.raises(ModelError, match="unknown observable"):
        parse_model(MINI.replace("state r0 : x == 0", "state r0 : y == 0"))


def test_observable_without_integer_bound_is_a_model_error():
    for sort in ("int", "int x 0..1", "int 0..", "int -..1"):
        with pytest.raises(ModelError, match="expected an integer bound") as exc:
            parse_model(MINI.replace("x : int 0..3", f"x : {sort}"))
        assert exc.value.line == 4


def test_non_decimal_digit_is_an_identifier():
    tok = tokenize("x > \u00b2")[2]
    assert (tok.kind, tok.text) == ("IDENT", "\u00b2")
    with pytest.raises(ModelError, match=r"unknown observable '\u00b2' \(line 11, column 19\)"):
        parse_model(MINI.replace("state r0 : x == 0", "state r0 : x == \u00b2"))
    with pytest.raises(ModelError, match="not in sort"):
        parse_model(MINI.replace("state q { x=1 }", "state q { x=\u00b2 }"))


RULES = MINI.replace("""behaviour explicit
  state p { x=0 }
  state q { x=1 }
  init p
  trans p -> q
""", """behaviour rules
  init x=0
  rule Up: x < 1 -> x := x + 1
""")


@pytest.mark.parametrize("text, line, extra", [
    (MINI, "  state p { x=0 }", "junk"),
    (MINI, "  init p", "q"),
    (MINI, "  trans p -> q", "-> p"),
    (MINI, "  init r0", "r1"),
    (RULES, "  init x=0", "junk"),
    (MINI, "observables", "x y"),
    (MINI, "structure", "of things"),
], ids=["state", "init", "trans", "structure-init", "rules-init", "observables",
        "structure"])
def test_trailing_tokens_are_errors(text, line, extra):
    lineno = text.splitlines().index(line) + 1
    token = extra.partition(" ")[0]
    col = len(line) + 2  # a file column: indentation counts
    with pytest.raises(ModelError) as exc:
        parse_model(text.replace(line + "\n", f"{line} {extra}\n", 1))
    assert str(exc.value) == f"trailing {token!r} (line {lineno}, column {col})"
    assert (exc.value.line, exc.value.col) == (lineno, col)


@pytest.mark.parametrize("text, line, second", [
    (MINI, "  init p", "  init q"),
    (MINI, "  init r0", "  init r1"),
    (RULES, "  init x=0", "  init x=1"),
], ids=["behaviour", "structure", "rules"])
def test_second_init_is_an_error(text, line, second):
    lineno = text.splitlines().index(line) + 2  # the second init's line
    with pytest.raises(ModelError) as exc:
        parse_model(text.replace(line + "\n", f"{line}\n{second}\n", 1))
    assert str(exc.value) == f"duplicate 'init' (line {lineno}, column 3)"


@pytest.mark.parametrize("bad, message, col", [
    ("      state r0 : x == y", "unknown observable 'y'", 23),
    ("      state r0 : x == 0 $", "unexpected character '$'", 25),
], ids=["formula", "lexer"])
def test_errors_on_indented_lines_give_file_columns_once(bad, message, col):
    with pytest.raises(ModelError) as exc:
        parse_model(MINI.replace("  state r0 : x == 0", bad))
    assert str(exc.value) == f"{message} (line 11, column {col})"


def test_system_name_is_one_id_token():
    with pytest.raises(ModelError) as exc:
        parse_model(MINI.replace("system mini", "system atv.s0!"))
    assert str(exc.value) == "unexpected character '.' (line 2, column 11)"
    with pytest.raises(ModelError, match=r"expected 'system <id>' \(line 2, column 7\)"):
        parse_model(MINI.replace("system mini", "system"))


def test_bad_sorts_are_located_model_errors():
    with pytest.raises(ModelError, match=r"empty integer sort 3\.\.1 \(line 4, column 7\)"):
        parse_model(MINI.replace("x : int 0..3", "x : int 3..1"))
    with pytest.raises(ModelError, match=r"duplicate observable 'x' \(line 3, column 1\)"):
        parse_model(MINI.replace("x : int 0..3", "x : int 0..3\n  x : bool"))


def test_comments_and_numeric_ids():
    text = MINI.replace("state p { x=0 }", "state p { x=0 }  # a comment")
    assert parse_model(text).name == "mini"


# ---------------------------------------------------------------------------
# Guarded rule expansion (bone behaviour)


def test_bone_rule_firing_facts(bone_s0):
    b = bone_s0.b
    assert b.initial == bid(0, 0, 1)
    # quiescence starts remodelling; over-signalling is the only alternative
    assert set(b.successors(bid(0, 0, 0))) == {bid(0, 0, 1), bid(0, 0, 2)}
    # osteoclast recruitment is the only move right after initiation
    assert set(b.successors(bid(0, 0, 1))) == {bid(1, 0, 1)}
    # osteoclast proliferation is capped at 2
    assert set(b.successors(bid(2, 0, 2))) == {bid(2, 0, 1)}


def test_bone_expansion_matches_brute_force_oracle(bone_s0):
    # independent transition function, hand-coded from the seven rules
    def moves(s):
        oc, ob, oy = s
        out = []
        if (oc, ob, oy) == (0, 0, 0):
            out.append((oc, ob, oy + 1))
        if oy == 0:
            out.append((oc, ob, 2))
        if oy <= oc and oy > 0:
            out.append((oc, ob, oy - 1))
        if ob <= 1 and oc < oy and oc < 2:
            out.append((oc + 1, ob, oy))
        if oc > oy and oc > 0:
            out.append((oc - 1, ob, oy))
        if ob < 2 * oc and oy == 0 and ob < 4:
            out.append((oc, ob + 1, oy))
        if ob > oc and ob > 0:
            out.append((oc, ob - 1, oy))
        return [(a, b_, c) for a, b_, c in out
                if 0 <= a <= 2 and 0 <= b_ <= 4 and 0 <= c <= 2]

    seen = {(0, 0, 1)}
    stack = [(0, 0, 1)]
    edges = set()
    while stack:
        s = stack.pop()
        for t in moves(s):
            edges.add((s, t))
            if t not in seen:
                seen.add(t)
                stack.append(t)

    assert len(seen) == 41  # frozen from this oracle
    assert {st.id for st in bone_s0.b.states.values()} == {bid(*s) for s in seen}
    assert set(bone_s0.b.transitions) == {(bid(*a), bid(*b_)) for a, b_ in edges}


def test_expansion_is_order_independent():
    header = """
system shuffle
observables
  Oc : int 0..2
  Ob : int 0..4
  Oy : int 0..2
behaviour rules
  init Oc=0, Ob=0, Oy=1
"""
    rules = [
        "rule Init:   Oc==0 && Ob==0 && Oy==0  -> Oy := Oy + 1",
        "rule OyUp:   Oy==0                    -> Oy := 2",
        "rule OyDown: Oy<=Oc && Oy>0           -> Oy := Oy - 1",
        "rule OcUp:   Ob<=1 && Oc<Oy && Oc<2   -> Oc := Oc + 1",
        "rule OcDown: Oc>Oy && Oc>0            -> Oc := Oc - 1",
        "rule ObUp:   Ob<2*Oc && Oy==0 && Ob<4 -> Ob := Ob + 1",
        "rule ObDown: Ob>Oc && Ob>0            -> Ob := Ob - 1",
    ]
    footer = """
structure
  state r0 : Oy>0 && Oc==0 && Ob==0
  init r0
"""
    base = None
    for shift in range(len(rules)):
        rotated = rules[shift:] + rules[:shift]
        text = header + "\n".join("  " + r for r in rotated) + footer
        sys_ = parse_model(text)
        shape = (frozenset(sys_.b.states), frozenset(sys_.b.transitions), sys_.b.initial)
        if base is None:
            base = shape
        assert shape == base


def test_expanded_states_respect_bounds(bone_s1):
    for st in bone_s1.b.states.values():
        bone_s1.sig.check_observation(st.obs)


def test_out_of_range_update_is_pruned(caplog):
    sig = Signature([("x", BoundedInt(0, 1))])
    from sbcheck.model import GuardedRule
    rules = [GuardedRule("Up", parse_formula("true", sig),
                         (("x", parse_formula("x + 1", sig, expect="int")),))]
    with caplog.at_level(logging.WARNING, logger="sbcheck.model"):
        b = expand_rules(rules, sig, {"x": 1})
    assert set(b.states) == {"1"} and not b.transitions
    assert any("pruned" in rec.message for rec in caplog.records)


def test_simultaneous_updates_use_pre_state():
    sig = Signature([("x", BoundedInt(0, 5)), ("y", BoundedInt(0, 5))])
    from sbcheck.model import GuardedRule
    swapish = [GuardedRule(
        "Swap", parse_formula("x == 1 && y == 2", sig),
        (("x", parse_formula("y", sig, expect="int")),
         ("y", parse_formula("x", sig, expect="int"))))]
    b = expand_rules(swapish, sig, {"x": 1, "y": 2})
    assert set(b.successors("1_2")) == {"2_1"}


def test_expansion_names_each_reached_observation_once(bone_s0, monkeypatch):
    calls = []
    name = model.canonical_state_id
    monkeypatch.setattr(model, "canonical_state_id",
                        lambda sig, obs: calls.append(obs) or name(sig, obs))
    sys_ = models.load("bone_s0")
    assert len(calls) == len(sys_.b.states) == 41
    assert list(sys_.b.states) == list(bone_s0.b.states)
    assert sys_.b.transitions == bone_s0.b.transitions
    assert sys_.b.initial == bone_s0.b.initial


# ---------------------------------------------------------------------------
# Behaviour levels


def test_transitions_keep_the_order_of_sorted_string_pairs():
    sig = Signature([("x", BoundedInt(0, 1))])
    s = SLevel([("r0", parse_formula("true", sig))], "r0", [])
    rng = random.Random(20141)
    for trial in range(300):
        n = rng.randint(1, 30)
        declared = [f"s{i}" for i in range(n)]
        # undeclared endpoints, and ids whose string order is not their
        # numeric order (s9 > s10)
        pool = declared + [f"s{n + i}" for i in range(rng.randint(0, 3))] + ["t", "9", "s"]
        trans = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4 * n))]
        trans += rng.sample(trans, len(trans) // 3)  # duplicates
        if trial % 3:  # listed by source, in numeric or reverse order
            trans.sort(key=lambda pair: pool.index(pair[0]), reverse=trial % 3 == 2)
        b = BLevel([BState(q, {"x": 0}) for q in declared], "s0", trans)
        assert b.transitions == tuple(sorted(set(trans)))
        ends = {q for pair in trans for q in pair}
        for q in ends | set(declared):
            assert b.successors(q) == tuple(d for src, d in b.transitions if src == q)
        found = [d.message for d in validate(SBSystem("x", sig, b, s)) if d.code == "b-dangling"]
        assert {m.split("'")[1] for m in found} == ends - set(declared)


# ---------------------------------------------------------------------------
# Structure level


def test_phase_starts_are_the_ranks_of_each_states_outgoing_phases(bundled):
    sig = Signature([("x", BoundedInt(0, 3))])

    def f(text):
        return parse_formula(text, sig)

    labels = [("r0", f("x == 0")), ("r1", f("x >= 1"))]
    written_twice = SLevel(labels, "r0", [STransition("r0", f("x >= 1"), "r1"),
                                          STransition("r0", f("(x>=1)"), "r1")])
    self_loop = SLevel(labels, "r0", [STransition("r0", f("x <= 2"), "r0"),
                                      STransition("r0", f("true"), "r1")])
    idle_start = SLevel(labels, "r0", [STransition("r1", f("true"), "r0")])
    assert written_twice.phase_starts == ((1,), ())
    assert self_loop.phase_starts == ((1, 2), ())
    assert idle_start.phase_starts == ((), (1,))
    levels = [written_twice, self_loop, idle_start] + [sys_.s for sys_ in bundled.values()]
    levels += [gen_random(seed, *acceptance_schedule(seed)).s for seed in range(500)]
    levels += [rules_system(seed).s for seed in range(50)]
    for s in levels:
        for r, rid in enumerate(s.ids):
            ranks = {s.phase_rank[pretty(tr.inv), tr.target]
                     for tr in s.transitions if tr.source == rid}
            assert s.phase_starts[r] == tuple(sorted(ranks))


# ---------------------------------------------------------------------------
# Validation


def test_bundled_models_validate(bundled):
    for sys_ in bundled.values():
        assert validate(sys_) == []


def test_def3_violation_diagnostic(bone_s0):
    sig = bone_s0.sig
    b = BLevel([BState("q", {"Oc": 1, "Ob": 0, "Oy": 1})], "q", [])
    s = SLevel([("r0", parse_formula("Oy>0 && Oc==0 && Ob==0", sig))], "r0", [])
    problems = validate(SBSystem("x", sig, b, s))
    assert [d.code for d in problems] == ["def3"]


def test_deadlocked_behaviour_is_still_valid():
    sys_ = parse_model(MINI.replace("  trans p -> q\n", ""))
    assert validate(sys_) == []


def test_validate_flags_bad_observation():
    sig = Signature([("x", BoundedInt(0, 1))])
    b = BLevel([BState("q", {"x": 5})], "q", [])
    s = SLevel([("r0", parse_formula("true", sig))], "r0", [])
    assert any(d.code == "b-obs" for d in validate(SBSystem("x", sig, b, s)))


def test_validate_flags_graph_integrity():
    sig = Signature([("x", BoundedInt(0, 1))])
    b = BLevel([BState("q", {"x": 0})], "ghost", [])
    s = SLevel([("r0", parse_formula("true", sig))], "r0",
               [STransition("r0", parse_formula("true", sig), "r9")])
    codes = {d.code for d in validate(SBSystem("x", sig, b, s))}
    assert {"b-init", "s-dangling"} <= codes


# ---------------------------------------------------------------------------
# Serialization and packaging


def test_dsl_round_trip(bundled):
    for sys_ in bundled.values():
        back = parse_model(system_to_dsl(sys_))
        assert set(back.b.states) == set(sys_.b.states)
        assert back.b.transitions == sys_.b.transitions
        assert back.b.initial == sys_.b.initial
        for q, st in back.b.states.items():
            assert st.obs == sys_.b.states[q].obs
        assert back.s.states == sys_.s.states
        assert back.s.transitions == sys_.s.transitions



def test_rule_expansion_stops_past_its_state_budget(tmp_path):
    text = """system count
observables
  x : int 0..9
behaviour rules
  init x=0
  rule Up: x < 9 -> x := x + 1
structure
  state r0 : x >= 0
  init r0
"""
    assert len(parse_model(text).b.states) == 10
    assert parse_model(text, max_states=10).b.transitions == parse_model(text).b.transitions
    with pytest.raises(StateBudgetError) as exc:
        parse_model(text, max_states=9)
    assert str(exc.value) == "expand_rules passed the state budget of 9 behaviour states"
    path = tmp_path / "count.sb"
    path.write_text(text)
    with pytest.raises(StateBudgetError):
        model.load_model(path, 9)


def test_rule_expansion_counts_the_initial_state_against_its_budget():
    text = """system still
observables
  x : int 0..1
behaviour rules
  init x=0
structure
  state r0 : x >= 0
  init r0
"""
    assert len(parse_model(text, max_states=1).b.states) == 1
    with pytest.raises(StateBudgetError) as exc:
        parse_model(text, max_states=0)
    assert str(exc.value) == "expand_rules passed the state budget of 0 behaviour states"
