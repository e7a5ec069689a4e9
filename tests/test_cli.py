import contextlib
import importlib
import io
import json
import pkgutil
import time

import pytest

import sbcheck
from sbcheck import InputError, adapt, cli, ctl, models
from sbcheck.cli import gen_random, run, system_to_dsl
from sbcheck.flatten import build_flat
from sbcheck.model import parse_model, validate


def model_path(name):
    return str(models.path(name))


def test_check_strong_exit_codes(capsys):
    assert run(["check", model_path("bone_s0"), "--mode", "strong"]) == 0
    assert "holds" in capsys.readouterr().out
    assert run(["check", model_path("atv_s1"), "--mode", "strong"]) == 1
    out = capsys.readouterr().out
    assert "fails" in out and "cycle" in out


def test_check_json_output(capsys):
    assert run(["check", model_path("bone_s1"), "--mode", "strong",
                "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["system", "mode", "holds", "relation", "evidence"]
    assert doc["holds"] is False and doc["mode"] == "strong"
    assert list(doc["evidence"]) == ["prefix", "cycle"]
    assert doc["evidence"]["cycle"][0]["q"] == "0_1_0"


def test_relation_and_check_agree(capsys, tmp_path):
    files = [model_path(n) for n in models.NAMES]
    for seed in (3, 4, 5):
        p = tmp_path / f"g{seed}.sb"
        assert run(["gen", "--seed", str(seed), "--b-states", "7",
                    "--s-states", "3", "--density", "0.35", "-o", str(p)]) == 0
        files.append(str(p))
    capsys.readouterr()
    for file in files:
        for mode in ("weak", "strong"):
            a = run(["check", file, "--mode", mode])
            b = run(["relation", file, "--mode", mode])
            if mode == "strong":
                assert a == b, (file, mode)
            assert a in (0, 1) and b in (0, 1)
    capsys.readouterr()


def test_relation_lists_pairs(capsys):
    assert run(["relation", model_path("atv_s0"), "--mode", "strong"]) == 0
    out = capsys.readouterr().out
    assert "(13, r1)" in out and "7 pairs" in out


def test_relation_json_output(capsys):
    assert run(["relation", model_path("atv_s0"), "--mode", "weak",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["system", "mode", "holds", "relation", "evidence"]
    assert doc["holds"] is True
    assert ["0", "r0"] in doc["relation"]
    assert doc["evidence"] == {"prefix": [], "cycle": []}


def test_verify_relation(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(
        {"pairs": [["0", "r0"], ["1", "r0"], ["2", "r0"], ["3", "r0"]]}))
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "weak"]) == 0
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "strong"]) == 1
    out = capsys.readouterr().out
    assert "(3, r0)" in out and "iii" in out


def test_verify_relation_without_pairs_key(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": [["0", "r0"]]}))
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "weak"]) == 2
    assert "'pairs'" in capsys.readouterr().err


def test_verify_relation_with_bare_pair_list(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps([["0", "r0"], ["1", "r0"]]))
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "weak"]) == 2
    assert "'pairs'" in capsys.readouterr().err


def test_a_relation_file_nested_too_deep_is_an_input_error(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    depth = 100_000
    rel.write_text('{"pairs": ' + "[" * depth + "]" * depth + "}")
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "weak"]) == 2
    assert capsys.readouterr().err == (
        f"sbcheck: error: {rel}: expected an object whose 'pairs' is a list of "
        "[behaviour state, structure state] pairs\n")


def test_directory_as_model(tmp_path, capsys):
    assert run(["check", str(tmp_path), "--mode", "weak"]) == 2
    assert "sbcheck: error:" in capsys.readouterr().err


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(sys_, max_states=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(adapt, "check_weak", broken)
    assert run(["check", model_path("atv_s0"), "--mode", "weak"]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_an_internal_value_error_exits_3(monkeypatch, capsys):
    # only the input errors exit 2; a ValueError of the program is a bug
    def broken(sys_, max_states=None):
        raise ValueError("boom")

    monkeypatch.setattr(adapt, "check_weak", broken)
    assert run(["check", model_path("atv_s0"), "--mode", "weak"]) == 3
    assert capsys.readouterr().err == "sbcheck: internal error: ValueError: boom\n"


def test_a_broken_witness_precondition_exits_3(monkeypatch, capsys):
    # a witness search run on a set that does not hold at its start is a bug
    def broken(k, good, t):
        raise ctl.CtlWitnessError("no cycle reachable inside the given set")

    monkeypatch.setattr(adapt, "witness_eg", broken)
    assert run(["check", model_path("atv_s0"), "--mode", "weak"]) == 3
    assert capsys.readouterr().err == ("sbcheck: internal error: CtlWitnessError: "
                                       "no cycle reachable inside the given set\n")


def test_every_error_class_but_the_witness_one_is_an_input_error():
    # an error class of the package that is not an InputError exits 3
    names = ["sbcheck"] + [m.name for m in pkgutil.walk_packages(sbcheck.__path__, "sbcheck.")]
    classes = {obj for mod in map(importlib.import_module, names)
               for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert InputError in classes
    assert {c for c in classes if not issubclass(c, InputError)} == {ctl.CtlWitnessError}


@pytest.mark.parametrize("pair", [["nope", "r0"], ["0", "nope"]])
def test_a_relation_naming_an_unknown_state_is_an_input_error(pair, tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"pairs": [pair]}))
    assert run(["verify-relation", model_path("atv_s1"),
                "--relation", str(rel), "--mode", "weak"]) == 2
    kind = "behaviour" if pair[0] == "nope" else "structure"
    assert capsys.readouterr().err == (f"sbcheck: error: unknown {kind} state "
                                       "'nope' in relation\n")


def test_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"pairs": [["0", "r0"], ["3", "r0"]]}), encoding="utf-8")
    model = tmp_path / "atv_s1.sb"
    model.write_text(models.path("atv_s1").read_text(encoding="utf-8"), encoding="utf-8")
    commands = [["check", "{model}", "--mode", "strong"],
                ["flatten", "{model}"],
                ["verify-relation", "{model}", "--relation", "{rel}", "--mode", "weak"]]
    for argv in commands:
        plain = [a.format(model=model, rel=rel) for a in argv]
        code = run(plain)
        want = capsys.readouterr()
        for path in (model, rel):
            marked = tmp_path / f"bom_{path.name}"
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert run([a.replace(str(path), str(marked)) for a in plain]) == code, argv
            assert capsys.readouterr() == want, argv


def test_ctl_subcommand(capsys):
    assert run(["ctl", model_path("atv_s1"), "--ctl",
                "EG((adapting => EF steady) && progress)"]) == 0
    assert run(["ctl", model_path("atv_s1"), "--ctl",
                "AG((adapting => AF steady) && progress)"]) == 1
    assert run(["ctl", model_path("atv_s1"), "--ctl",
                "AG((adapting => AF steady) && progress)", "--at", "3,r0"]) == 1
    assert run(["ctl", model_path("atv_s0"), "--ctl",
                "AG((adapting => AF steady) && progress)", "--at", "3,r0"]) == 0
    capsys.readouterr()


def test_ctl_at_rejects_a_pair_violating_its_constraints(capsys):
    # state 8 carries c=1, violating the label of r0: no flat state (8, r0, {})
    assert run(["ctl", model_path("atv_s0"), "--ctl", "!progress", "--at", "8,r0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sbcheck: error: behaviour state '8' does not satisfy "
                            "the constraints of 'r0'\n")


def test_ctl_deep_negation_chain_gets_a_verdict(capsys):
    model = model_path("atv_s0")
    plain = run(["ctl", model, "--ctl", "steady"])
    negated = run(["ctl", model, "--ctl", "!steady"])
    assert {plain, negated} == {0, 1}
    # deeper than the recursion limit, in the parser and in the checker
    assert run(["ctl", model, "--ctl", "!" * 5000 + "steady"]) == plain
    assert run(["ctl", model, "--ctl", "!" * 5001 + "steady"]) == negated
    assert capsys.readouterr().err == ""


DEPTH = 3000  # well past the recursion limit


def test_deeply_parenthesised_structure_label_gets_a_verdict(tmp_path, capsys):
    text = models.path("atv_s0").read_text()
    label = "r==M && c==0"
    assert f"state r0 : {label}\n" in text
    nested = tmp_path / "nested.sb"
    nested.write_text(text.replace(label, "(" * DEPTH + label + ")" * DEPTH, 1))
    plain = run(["check", model_path("atv_s0"), "--mode", "weak"])
    plain_out = capsys.readouterr()
    assert run(["check", str(nested), "--mode", "weak"]) == plain
    assert capsys.readouterr() == plain_out


def test_ctl_deep_parentheses_get_a_verdict(capsys):
    model = model_path("atv_s0")
    plain = run(["ctl", model, "--ctl", "steady"])
    assert run(["ctl", model, "--ctl", "(" * DEPTH + "steady" + ")" * DEPTH]) == plain
    assert capsys.readouterr().err == ""


def test_ctl_long_implication_chain_gets_a_verdict(capsys):
    model = model_path("atv_s0")
    assert run(["ctl", model, "--ctl", "steady => steady"]) == 0
    assert run(["ctl", model, "--ctl", " => ".join(["steady"] * DEPTH)]) == 0
    assert capsys.readouterr().err == ""


DEEP_FORMULAS = {  # each is well-sorted over the signature of atv_s0
    "or": " || ".join(["v==V0", "v==V1", "c==1"] * 1000),
    "not": "!" * 4000 + "(r==M && c==0)",
    "sum": " + ".join(["c"] * 3000) + " == 0",
}
DEEP_COMMANDS = {
    "check": ["check", "--mode", "weak"],
    "relation": ["relation", "--mode", "weak"],
    "flatten": ["flatten", "--format", "json"],
    "export": ["export", "--format", "dot"],
}


@pytest.mark.parametrize("command", DEEP_COMMANDS)
@pytest.mark.parametrize("formula", DEEP_FORMULAS)
@pytest.mark.parametrize("place", ["label", "invariant"])
def test_deep_and_long_formulas_get_an_answer(place, formula, command, tmp_path, capsys):
    text = models.path("atv_s0").read_text()
    phi = DEEP_FORMULAS[formula]
    if place == "label":
        text = text.replace("state r0 : r==M && c==0", f"state r0 : {phi}")
    else:
        # two transitions into r1 with one invariant: a single phase
        text = text.replace("inv v==V0 || v==V1", f"inv {phi}") + f"  trans r1 -> r1 inv {phi}\n"
    model = tmp_path / "deep.sb"
    model.write_text(text)
    argv = DEEP_COMMANDS[command]
    assert run([argv[0], str(model), *argv[1:]]) in (0, 1, 2)
    assert "internal error" not in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    assert run(["validate", model_path("bone_s0")]) == 0
    bad = tmp_path / "bad.sb"
    bad.write_text(models.path("atv_s0").read_text().replace("init 0", "init 8"))
    assert run(["validate", str(bad)]) == 1
    assert "def3" in capsys.readouterr().err


def test_flatten_subcommand(capsys):
    assert run(["flatten", model_path("bone_s1")]) == 0
    out = capsys.readouterr().out
    assert "33 flat states" in out and "dead states (1)" in out


def test_export_subcommand(tmp_path, capsys):
    dot = tmp_path / "f.dot"
    assert run(["export", model_path("atv_s0"), "--format", "dot",
                "-o", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    assert run(["export", model_path("atv_s0"), "--format", "json",
                "--stage", "kripke"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"state", "labels"} == set(doc["states"][0])


RUNAWAY_RULES = """system runaway
observables
  x : int 0..100000000
behaviour rules
  init x=0
  rule Inc: x < 100000000 -> x := x + 1
structure
  state r0 : x >= 0
  init r0
"""


def test_state_budget_stops_a_runaway_rule_expansion(tmp_path, capsys):
    model = tmp_path / "runaway.sb"
    model.write_text(RUNAWAY_RULES)
    start = time.perf_counter()
    assert run(["check", str(model), "--mode", "weak", "--max-states", "1000"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sbcheck: error: expand_rules passed the state budget "
                            "of 1000 behaviour states\n")


@pytest.mark.parametrize("command", [
    ["validate"], ["flatten"], ["check", "--mode", "weak"], ["check", "--mode", "strong"],
    ["relation", "--mode", "weak"], ["relation", "--mode", "strong"],
    ["verify-relation", "--mode", "strong", "--relation", "{relation}"],
    ["ctl", "--ctl", "steady"], ["ctl", "--ctl", "steady", "--at", "3,r0"],
    ["export", "--format", "json"],
])
def test_every_model_command_takes_a_state_budget(command, tmp_path, capsys):
    relation = tmp_path / "rel.json"
    relation.write_text('{"pairs": [["0", "r0"]]}')
    command = [a.format(relation=relation) for a in command]
    rules = tmp_path / "runaway.sb"
    rules.write_text(RUNAWAY_RULES)
    assert run([command[0], str(rules), *command[1:], "--max-states", "50"]) == 2
    assert "expand_rules passed the state budget of 50" in capsys.readouterr().err
    # 9 behaviour states, 9 flat states; its weak relation route steps 9 flat
    # states, and checking one pair steps 1
    explicit = model_path("atv_s0")
    unbounded = run([command[0], explicit, *command[1:]])
    out = capsys.readouterr().out
    assert run([command[0], explicit, *command[1:], "--max-states", "9"]) == unbounded
    assert capsys.readouterr().out == out
    code = run([command[0], explicit, *command[1:], "--max-states", "8"])
    err = capsys.readouterr().err
    if command[0] in ("flatten", "check", "ctl", "export"):
        assert code == 2 and "build_flat passed the state budget of 8 flat states" in err
    elif command[0] == "relation":
        assert code == 2 and "relation route passed the state budget of 8 flat states" in err
    else:
        assert code == unbounded and err == ""


def test_state_budget_bounds_the_relation_route(tmp_path, capsys):
    assert run(["relation", model_path("atv_s0"), "--mode", "weak", "--max-states", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sbcheck: error: relation route passed the state budget "
                            "of 1 flat states\n")
    relation = tmp_path / "rel.json"
    relation.write_text('{"pairs": [["0", "r0"], ["1", "r0"]]}')
    for mode in ("weak", "strong"):
        assert run(["verify-relation", model_path("atv_s0"), "--mode", mode,
                    "--relation", str(relation), "--max-states", "1"]) == 2
        assert capsys.readouterr().err == ("sbcheck: error: relation route passed the "
                                           "state budget of 1 flat states\n")


@pytest.mark.parametrize("value", ["0", "-3", "x", "1.5"])
def test_state_budget_must_be_a_positive_integer(value, capsys):
    assert run(["check", model_path("atv_s0"), "--mode", "weak", "--max-states", value]) == 2
    err = capsys.readouterr().err
    assert f"argument --max-states: expected a positive number of states, got {value!r}" in err


def test_usage_and_parse_errors(tmp_path, capsys):
    assert run([]) == 2
    assert run(["check", model_path("atv_s0")]) == 2  # missing --mode
    assert run(["check", str(tmp_path / "missing.sb"), "--mode", "weak"]) == 2
    broken = tmp_path / "broken.sb"
    broken.write_text("system x\nobservables\n  a : int 0..\n")
    assert run(["validate", str(broken)]) == 2
    assert run(["ctl", model_path("atv_s0"), "--ctl", "EX foo"]) == 2
    capsys.readouterr()


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.sb", tmp_path / "b.sb"
    for p in (a, b):
        assert run(["gen", "--seed", "7", "--b-states", "6", "--s-states", "2",
                    "--density", "0.4", "-o", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sys_ = parse_model(a.read_text())
    assert validate(sys_) == []
    capsys.readouterr()


def test_gen_random_contract():
    sys_ = gen_random(1, 6, 2, 0.5)
    assert validate(sys_) == []
    # density one gives the total behaviour transition relation
    total = gen_random(13, 5, 2, 1.0)
    assert len(total.b.transitions) == 25
    with pytest.raises(Exception):
        gen_random(1, 0, 2, 0.5)
    with pytest.raises(Exception):
        gen_random(1, 3, 2, 0.0)


def test_gen_round_trip_through_dsl():
    sys_ = gen_random(21, 8, 3, 0.4)
    back = parse_model(system_to_dsl(sys_))
    assert set(back.b.states) == set(sys_.b.states)
    assert back.b.transitions == sys_.b.transitions
    assert back.s.states == sys_.s.states
    assert back.s.transitions == sys_.s.transitions
    assert build_flat(back).n_states == build_flat(sys_).n_states


NEGATIVE_MODEL = """system neg

observables
  x : int -3..3

behaviour explicit
  state a { x=-3 }
  state b { x=-2 }
  state c { x=0 }
  state d { x=2 }
  state e { x=-1 }
  init a
  trans a -> b
  trans b -> e
  trans b -> c
  trans e -> c
  trans e -> e
  trans c -> d
  trans d -> d
  trans d -> a

structure
  state r0 : x <= -2
  state r1 : x >= 1
  init r0
  trans r0 -> r1 inv -x < 4
  trans r1 -> r0 inv x * -1 + 3 >= -5
"""


def test_negative_literals_in_labels_get_agreeing_verdicts(tmp_path, capsys):
    # b may adapt forever through e, so weak adaptability holds and strong fails
    path = tmp_path / "neg.sb"
    path.write_text(NEGATIVE_MODEL, encoding="utf-8")
    again = tmp_path / "again.sb"
    again.write_text(system_to_dsl(parse_model(NEGATIVE_MODEL)), encoding="utf-8")
    for file in (path, again):
        for mode, want in (("weak", 0), ("strong", 1)):
            assert run(["check", str(file), "--mode", mode]) == want, (file, mode)
            assert run(["relation", str(file), "--mode", mode]) == want, (file, mode)
    assert "state r0 : x <= -2" in again.read_text(encoding="utf-8")
    capsys.readouterr()


NEGATIVE_RULE_MODELS = {
    "one": """system negrules
observables
  x : int -2..2
behaviour rules
  init x=-2
  rule U: x < 2 -> x := x + 1
structure
  state r0 : x <= -1
  state r1 : x >= 1
  init r0
  trans r0 -> r1 inv x >= -2
  trans r1 -> r0 inv true
""",
    "second": """system negsecond
observables
  x : int 0..2
  y : int -1..1
behaviour rules
  init x=0, y=-1
  rule A: x < 2 -> x := x + 1
  rule B: y < 1 && x > 0 -> y := y + 1
  rule C: x > 0 && y > -1 -> x := x - 1, y := y - 1
structure
  state r0 : y <= 0
  state r1 : y >= 0 && x >= 1
  init r0
  trans r0 -> r1 inv x >= 1
  trans r1 -> r0 inv true
""",
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_RULE_MODELS))
def test_rule_states_with_negative_values_round_trip_through_dsl(name, tmp_path, capsys):
    # a rule state's id spells a minus sign as m, so the id is one word;
    # the first line of states adapts once and dead-ends, the second holds
    text = NEGATIVE_RULE_MODELS[name]
    sys_ = parse_model(text)
    assert any("m" in q for q in sys_.b.states)
    back = parse_model(system_to_dsl(sys_))
    assert sorted(back.b.states) == sorted(sys_.b.states)
    assert back.b.transitions == sys_.b.transitions
    path, again = tmp_path / "rules.sb", tmp_path / "again.sb"
    path.write_text(text, encoding="utf-8")
    again.write_text(system_to_dsl(sys_), encoding="utf-8")
    for command in ("check", "relation"):
        for mode in ("weak", "strong"):
            args = ["--mode", mode]
            assert run([command, str(again), *args]) == run([command, str(path), *args])
    capsys.readouterr()


def test_color_env(capsys, monkeypatch):
    monkeypatch.setenv("SBCHECK_COLOR", "1")
    run(["check", model_path("atv_s0"), "--mode", "weak"])
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.setenv("SBCHECK_COLOR", "0")
    run(["check", model_path("atv_s0"), "--mode", "weak"])
    assert "\x1b[" not in capsys.readouterr().out


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("error, message", [
    (["check", "{model}", "--format", "json"], "the following arguments are required: --mode"),
    (["bogus", "{model}"], "invalid choice: 'bogus'"),
])
def test_one_parser_per_process_answers_like_a_fresh_one(error, message):
    calls = [error, ["--help"], ["check", "--help"],
             ["check", "{model}", "--mode", "weak"], error]
    calls = [[a.format(model=model_path("atv_s0")) for a in argv] for argv in calls]
    cli._build_parser.cache_clear()
    repeated = [_captured(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1  # built once for all five
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(_captured(argv))
    assert repeated == first
    assert [code for code, _, _ in repeated] == [2, 0, 0, 0, 2]
    assert message in repeated[0][2] and repeated[0][1] == ""
    assert repeated[1][1].startswith("usage: sbcheck") and repeated[1][2] == ""
    assert "weak adaptability holds" in repeated[3][1]
