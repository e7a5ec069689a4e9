"""The value classes against frozen dataclasses of the same fields, and the
modules that importing the command line loads.

Every :class:`~sbcheck.constraints.Record` subclass of the package is
compared with a reference built by ``dataclasses.make_dataclass`` from its
fields and defaults: equality across every pair of samples (different
classes included), hash, repr, the errors of assignment and deletion, match
patterns, and round trips through ``copy`` and ``pickle``.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sbcheck
from sbcheck.adapt import AdaptRelation, RelationCheck, Verdict, Violation
from sbcheck.constraints import (
    Arith,
    BoolConst,
    BoolOp,
    BoolSort,
    BoundedInt,
    Cmp,
    EnumConst,
    EnumSort,
    Group,
    IntConst,
    Not,
    Record,
    Var,
)
from sbcheck.ctl import CtlAU, CtlEU, CtlEX, Lasso
from sbcheck.flatten import FlatState
from sbcheck.model import BState, Diagnostic, GuardedRule, STransition

X = Var("x")
PHASE = ("x > 0", "r1")
VIOLATION = Violation(("q0", "r0"), "ii", "steady successors [(q1, r0)] unrelated")
SAMPLES = [
    BoundedInt(0, 3), BoundedInt(0, 4), BoolSort(), EnumSort(("A", "B")),
    BoolConst(True), BoolConst(False), IntConst(1), IntConst(0),
    EnumConst("x"), Var("x"), Var("y"),
    Arith("+", X, IntConst(1)), Cmp("<", X, IntConst(1)), Not(X),
    BoolOp("&&", X, Not(X)), BoolOp("&&", Var("x"), Not(Var("x"))), BoolOp("||", X, Not(X)),
    Group(("(",), (")",)), Group(("E", "["), ("U", "]"), CtlEU),
    STransition("r0", BoolConst(True), "r1"),
    GuardedRule("Up", BoolConst(True), (("x", IntConst(1)),)), Diagnostic("E1", "no initial state"),
    CtlEX(X), CtlEU(BoolConst(True), X), CtlAU(BoolConst(True), X),
    Lasso((0, 1), (2,)), Lasso((), (0,)),
    FlatState("q0", "r0"), FlatState("q0", "r0", None), FlatState("q0", "r0", PHASE),
    AdaptRelation(frozenset({("q0", "r0")})), AdaptRelation(frozenset()),
    VIOLATION, RelationCheck(False, (VIOLATION,)), RelationCheck(True, ()),
    Verdict(True, Lasso((), (FlatState("q0", "r0"),))),
]


def _package_classes():
    names = ["sbcheck"] + [m.name for m in pkgutil.walk_packages(sbcheck.__path__, "sbcheck.")]
    return {obj for mod in map(importlib.import_module, names) for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__}


def _reference(cls):
    """A frozen dataclass of ``cls``'s name, fields and defaults."""
    defaults = getattr(cls.__init__, "__defaults__", None) or ()
    fields = [(f, object) for f in cls.__slots__]
    for i, default in enumerate(defaults, len(fields) - len(defaults)):
        fields[i] += (dataclasses.field(default=default),)
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


REFERENCES = {cls: _reference(cls) for cls in {type(x) for x in SAMPLES}}


def _ref(x):
    return REFERENCES[type(x)](*(getattr(x, f) for f in x.__slots__))


def test_the_samples_cover_every_value_class_and_no_class_is_a_dataclass():
    classes = _package_classes()
    assert {c for c in classes if issubclass(c, Record) and c is not Record} == set(REFERENCES)
    assert len(REFERENCES) == 24
    assert not any(dataclasses.is_dataclass(c) for c in classes)


def test_equality_and_hash_match_the_dataclasses():
    for a in SAMPLES:
        assert hash(a) == hash(_ref(a))
        for b in SAMPLES:
            assert (a == b) is (_ref(a) == _ref(b)), (a, b)
            assert (a != b) is (_ref(a) != _ref(b)), (a, b)
    # across node types, and against a tuple of the same fields
    assert BoolConst(True) != IntConst(1) and hash(BoolConst(True)) == hash(IntConst(1))
    assert Var("x") != EnumConst("x") and Var("x") != ("x",)
    assert BoolOp("&&", X, Not(X)) == BoolOp("&&", Var("x"), Not(Var("x")))


def test_repr_matches_the_dataclasses():
    for a in SAMPLES:
        assert repr(a) == repr(_ref(a))
    assert repr(FlatState("q0", "r0")) == "FlatState(q='q0', r='r0', phase=None)"


@pytest.mark.parametrize("x", SAMPLES, ids=repr)
def test_assignment_and_deletion_raise_as_the_dataclasses(x):
    for name in x.__slots__ + ("other",):
        for change, args in ((setattr, (name, 0)), (delattr, (name,))):
            with pytest.raises(AttributeError) as got:
                change(x, *args)
            with pytest.raises(AttributeError) as want:
                change(_ref(x), *args)
            assert str(got.value) == str(want.value)
    assert all(getattr(x, f) == getattr(_ref(x), f) for f in x.__slots__)


def test_match_patterns_read_the_fields_in_order():
    for cls, ref in REFERENCES.items():
        assert cls.__match_args__ == ref.__match_args__
    match FlatState("q0", "r0", PHASE):
        case FlatState(q, "r0", phase=(inv, target)):
            assert (q, inv, target) == ("q0", "x > 0", "r1")
        case _:
            pytest.fail("no match")
    match BoolOp("=>", X, Not(X)):
        case BoolOp("=>", Var(name), Not(arg=Var(name=other))):
            assert name == other == "x"
        case _:
            pytest.fail("no match")
    match Lasso((), (0,)):
        case Lasso(prefix=(), cycle=(head,)):
            assert head == 0
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("x", SAMPLES, ids=repr)
def test_copy_and_pickle_round_trip(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
    assert copy.copy(Var("x")) is not Var("x")


def test_a_behaviour_state_is_mutable_and_equal_only_to_itself():
    ref = dataclasses.make_dataclass("BState", ["id", "obs"], eq=False)
    a, b = BState("q0", {"x": 1}), BState("q0", {"x": 1})
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == repr(ref("q0", {"x": 1})) == "BState(id='q0', obs={'x': 1})"
    assert BState.__match_args__ == ref.__match_args__
    match a:
        case BState(q, obs={"x": v}):
            assert (q, v) == ("q0", 1)
        case _:
            pytest.fail("no match")
    a.id = "q1"
    assert a.id == "q1"
    twin = pickle.loads(pickle.dumps(a))
    assert (twin.id, twin.obs) == ("q1", {"x": 1}) and twin != a


@pytest.mark.parametrize("make, text", [
    (lambda: BoundedInt(3, 1), "empty integer sort 3..1"),
    (lambda: EnumSort(()), "enum sort needs at least one label"),
    (lambda: EnumSort(("A", "B", "A")), "duplicate enum labels in ('A', 'B', 'A')"),
    (lambda: EnumSort(("A", "true")), "bad enum label 'true'"),
    (lambda: EnumSort(("1x",)), "bad enum label '1x'"),
])
def test_sort_checks_keep_their_messages(make, text):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == text


def test_importing_the_cli_loads_no_class_generator_or_logging():
    # a fresh interpreter without ``site``, which may load any of them itself
    src = str(Path(sbcheck.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sbcheck.cli, sbcheck.models; "
            "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
