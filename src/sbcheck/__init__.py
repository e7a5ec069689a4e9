"""Adaptability checking for two-level constrained state machines."""

from .adapt import (
    AdaptRelation,
    Evidence,
    PreconditionError,
    RelationCheck,
    Verdict,
    Violation,
    check_strong,
    check_weak,
    greatest_strong_relation,
    is_strong_adaptation,
    is_weak_adaptation,
    state_adaptable,
    strong_relation,
    weak_relation,
)
from .constraints import (
    BoolSort,
    BoundedInt,
    EnumSort,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    InputError,
    Signature,
    SortMismatchError,
    UnknownObservableError,
    evaluate,
    parse_formula,
    pretty,
)
from .ctl import Kripke, Lasso, parse_ctl, sat_set, witness_eg, counterexample_ag
from .flatten import FlatLts, FlatState, build_flat, flat_successors
from .kripke import to_kripke
from .model import (
    BLevel,
    BState,
    Diagnostic,
    GuardedRule,
    ModelError,
    SBSystem,
    SLevel,
    StateBudgetError,
    STransition,
    expand_rules,
    load_model,
    parse_model,
    validate,
)

__version__ = "0.1.0"
